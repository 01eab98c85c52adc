import hashlib
import json
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import pliersim
from pliersim import cli
from pliersim.graph import ParseError, load_graph_tsv, save_graph_tsv
from pliersim.recommend import RecommendationVector
from pliersim.simulator import ContactEvent, ContactTrace, ContentEvent
from pliersim.synth import generate_synthetic_contents
from pliersim.traces import (
    ConfigError,
    correlation_csv_text,
    correlation_for_run,
    fmt,
    metrics_csv_text,
    parse_config_file,
    parse_contacts,
    parse_contents,
    ranking_csv_text,
    write_contacts,
    write_contents,
)

from conftest import eq1_hand_graph


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestTraceFiles:
    def test_contact_round_trip(self, tmp_path):
        events = [ContactEvent(0, "a", "b"), ContactEvent(75, "b", "c")]
        path = tmp_path / "contacts.csv"
        write_contacts(path, events)
        trace = parse_contacts(path)
        assert trace == ContactTrace.of(events)
        assert (trace.times.tolist(), trace.a.tolist(), trace.b.tolist(), trace.agents) == (
            [0, 75], [0, 1], [1, 2], ["a", "b", "c"]
        )

    def test_contact_columns_are_packed(self, tmp_path):
        events = [ContactEvent(0, "a", "b"), ContactEvent(75, "b", "c")]
        path = tmp_path / "contacts.csv"
        write_contacts(path, events)
        for trace in (parse_contacts(path), ContactTrace.of(events), ContactTrace()):
            for column in (trace.times, trace.a, trace.b):
                assert isinstance(column, array) and column.typecode == "q"

    def test_content_round_trip(self, tmp_path):
        events = [
            ContentEvent(0, "a", "i1", ("t1",)),
            ContentEvent(120, "b", "i2", ("t1", "t2")),
        ]
        path = tmp_path / "contents.csv"
        write_contents(path, events)
        assert parse_contents(path) == events

    def test_headerless_and_commented_files_accepted(self, tmp_path):
        path = tmp_path / "contacts.csv"
        path.write_text("# generated\n10,a,b\n\n20,b,c\n")
        assert parse_contacts(path) == ContactTrace.of(
            [ContactEvent(10, "a", "b"), ContactEvent(20, "b", "c")]
        )

    @pytest.mark.parametrize(
        "parse,text,events",
        [
            (
                parse_contacts,
                "# note\n\ntime_s,agent_a,agent_b\n0,a,b\n",
                ContactTrace.of([ContactEvent(0, "a", "b")]),
            ),
            (
                parse_contents,
                "\n# generated\ntime_s,agent,item_key,tags\n0,a,i1,t1\n",
                [ContentEvent(0, "a", "i1", ("t1",))],
            ),
        ],
    )
    def test_header_after_comments_accepted(self, tmp_path, parse, text, events):
        # the header is the first line that is neither blank nor a comment
        path = tmp_path / "trace.csv"
        path.write_text(text)
        assert parse(path) == events

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("time_s,agent_a,agent_b\n10,a\n", 2),
            ("10,a,b\ntime_s,agent_a,agent_b\n", 2),
            ("10,a,a\n", 1),
            ("soon,a,b\n", 1),
            ("10,,b\n", 1),
            ("-5,a,b\n", 1),
            ("0,a,b\n10,b, b \n", 2),
            ("0,a,b\n9223372036854775808,b,c\n", 2),
        ],
    )
    def test_contact_errors_cite_line(self, tmp_path, text, lineno):
        path = tmp_path / "contacts.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            parse_contacts(path)
        assert err.value.line == lineno

    @pytest.mark.parametrize(
        "text,message",
        [
            ("10,a,a\n", "contact of agent 'a' with itself"),
            ("-5,a,b\n", "contact time must be >= 0"),
            # the self-contact check comes first, as ContactEvent's does
            ("-5,a, a\n", "contact of agent 'a' with itself"),
            ("9223372036854775808,a,b\n", "bad time '9223372036854775808'"),
        ],
    )
    def test_contact_check_messages(self, tmp_path, text, message):
        path = tmp_path / "contacts.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            parse_contacts(path)
        assert str(err.value) == f"{path}:1: {message}"

    @pytest.mark.parametrize(
        "parse,text,message",
        [
            (parse_contacts, "10,a;x,b\n", "agent 'a;x' contains a separator"),
            (parse_contacts, "10,a,b\tc\n", "agent 'b\\tc' contains a separator"),
            (parse_contents, "0,a,i;1,t1\n", "item key 'i;1' contains a separator"),
        ],
    )
    def test_separator_in_key_cites_line(self, tmp_path, parse, text, message):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            parse(path)
        assert str(err.value) == f"{path}:1: {message}"

    def test_content_time_of_2_63_rejected(self, tmp_path):
        path = tmp_path / "contents.csv"
        path.write_text("0,a,i1,t1\n9223372036854775807,a,i2,t1\n")
        assert parse_contents(path)[1].time == 2**63 - 1
        path.write_text("0,a,i1,t1\n9223372036854775808,a,i2,t1\n")
        with pytest.raises(ParseError) as err:
            parse_contents(path)
        assert str(err.value) == f"{path}:2: bad time '9223372036854775808'"

    @pytest.mark.parametrize(
        "text",
        ["0,a,i1,\n", "0,a,i1,t1;;t2\n", "x,a,i1,t1\n", "0,a,i1\n"],
    )
    def test_content_errors(self, tmp_path, text):
        path = tmp_path / "contents.csv"
        path.write_text(text)
        with pytest.raises(ParseError):
            parse_contents(path)


class TestConfigFile:
    def test_full_config(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "# simulation settings\n"
            "step_length_s = 30\n"
            "lambda = 0.25\n"
            "expiry_window_s = 3600\n"
            "metric_cadence = 5\n"
            "top_n = 10\n"
            "download_policy = bounded_buffer\n"
            "download_buffer_capacity = 4\n"
        )
        config = parse_config_file(path)
        assert config.step_length == 30
        assert config.affinity_weight == 0.25
        assert config.expiry_window == 3600
        assert config.metric_cadence == 5
        assert config.top_n == 10
        assert config.download_policy == "bounded_buffer"
        assert config.download_buffer_capacity == 4

    def test_defaults_from_empty_file(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("# nothing here\n")
        config = parse_config_file(path)
        assert config.step_length == 60
        assert config.affinity_weight == 0.5
        assert config.expiry_window is None
        assert config.download_policy is None

    @pytest.mark.parametrize(
        "text",
        [
            "mystery_key = 1\n",
            "step_length_s = fast\n",
            "step_length_s\n",
            "download_policy = shiny\n",
            "spearman_mode = odd\n",
            "rng_seed = x\n",
        ],
    )
    def test_bad_configs_rejected(self, tmp_path, text):
        path = tmp_path / "sim.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError):
            parse_config_file(path)


class TestCsvFormatting:
    def test_float_format_nine_significant_digits(self):
        assert fmt(1 / 3) == "0.333333333"
        assert fmt(1.0) == "1"
        assert fmt(0.25) == "0.25"
        assert fmt(2 / 3) == "0.666666667"

    def test_metrics_text_shape(self):
        from pliersim.simulator import StepMetrics

        text = metrics_csv_text(
            [StepMetrics(0, 60, 1 / 3, 1.0, 1.0, 1.0, 0, 1)]
        )
        lines = text.splitlines()
        assert lines[0].startswith("#")
        assert "step,sim_time_s,avg_graph_jaccard" in lines[3]
        assert lines[4] == "0,60,0.333333333,1,1,1,0,1"

    def test_correlation_text(self):
        from pliersim.simulator import StepMetrics

        rows = [
            StepMetrics(i, 60 * (i + 1), 0.1 * i, 1.0, 1.0, 1.0, i % 3, 1)
            for i in range(6)
        ]
        report = correlation_for_run(rows)
        text = correlation_csv_text(report)
        assert text.splitlines()[1] == "r_squared,r_yx1,r_yx2,beta1,beta2,n,flags"
        assert len(text.splitlines()) == 3
        assert correlation_csv_text(None).splitlines()[2].endswith("insufficient_data")

    def test_ranking_text_pinned(self):
        rec = RecommendationVector("u", [("i2", 2 / 3), ("i10", 1 / 3), ("i1", 1e-10)])
        assert ranking_csv_text(rec).encode() == (
            b"rank,item,score\n1,i2,0.666666667\n2,i10,0.333333333\n3,i1,1e-10\n"
        )
        assert ranking_csv_text(RecommendationVector("u", [])) == "rank,item,score\n"


@pytest.fixture
def sim_fixture(tmp_path):
    contacts = tmp_path / "contacts.csv"
    contents = tmp_path / "contents.csv"
    write_contacts(
        contacts,
        [ContactEvent(60, "a1", "a3"), ContactEvent(240, "a2", "a3")],
    )
    write_contents(
        contents,
        [
            ContentEvent(0, "a1", "i1", ("x", "y")),
            ContentEvent(120, "a2", "i2", ("y",)),
        ],
    )
    return contacts, contents


class TestCliSimulate:
    def test_writes_outputs_and_is_digest_stable(self, sim_fixture, tmp_path):
        contacts, contents = sim_fixture
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli.main(["simulate", str(contacts), str(contents), "--outdir", str(out1)]) == 0
        assert cli.main(["simulate", str(contacts), str(contents), "--outdir", str(out2)]) == 0
        assert digest(out1 / "metrics.csv") == digest(out2 / "metrics.csv")
        assert digest(out1 / "correlation.csv") == digest(out2 / "correlation.csv")
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["version"] == pliersim.__version__
        assert set(manifest["outputs"]) == {"metrics.csv", "correlation.csv"}

    def test_parse_error_exit_code(self, tmp_path, sim_fixture, capsys):
        contacts, contents = sim_fixture
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,valid,row,at,all\n")
        assert cli.main(["simulate", str(bad), str(contents)]) == 2
        assert "bad.csv:1" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, sim_fixture):
        contacts, contents = sim_fixture
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("mystery = 5\n")
        code = cli.main(
            ["simulate", str(contacts), str(contents), "--config", str(cfg),
             "--outdir", str(tmp_path / "out")]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "line,message",
        [
            ("expiry_window_s = x", "expiry_window_s must be an integer, got 'x'"),
            ("lambda = 2", "lambda must lie in [0, 1]"),
            ("expiry_window_s = 0", "expiry_window_s must be positive when set"),
            (
                "download_policy = greedy",
                "download_policy must be one of mean_threshold, percentile_threshold, "
                "bounded_buffer, got 'greedy'",
            ),
            (
                "download_percentile = 120\ndownload_policy = percentile_threshold",
                "download_percentile must lie in [0, 100]",
            ),
            (
                "download_buffer_capacity = 0\ndownload_policy = bounded_buffer",
                "download_buffer_capacity must be >= 1",
            ),
            ("spearman_mode = literal", "unknown key 'spearman_mode'"),
            # a policy key that no policy, or not the chosen one, reads
            (
                "download_percentile = 90",
                "download_percentile is read only by download_policy = percentile_threshold",
            ),
            (
                "download_buffer_capacity = 4\ndownload_policy = mean_threshold",
                "download_buffer_capacity is read only by download_policy = bounded_buffer",
            ),
            (
                "download_history_s = 60\ndownload_policy = bounded_buffer",
                "download_history_s is read only by download_policy = "
                "mean_threshold or percentile_threshold",
            ),
            (
                "download_percentile = 90\ndownload_policy = mean_threshold",
                "download_percentile is read only by download_policy = percentile_threshold",
            ),
            ("top_n = -1", "top_n must be >= 0"),
            # an empty value used to keep the default silently; "none" does that
            ("top_n =", "top_n has no value"),
            ("download_policy =", "download_policy has no value"),
        ],
    )
    def test_config_value_error_cites_file_and_line(
        self, tmp_path, sim_fixture, capsys, line, message
    ):
        contacts, contents = sim_fixture
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"# settings\nstep_length_s = 30\n{line}\nmetric_cadence = 2\n")
        code = cli.main(
            ["simulate", str(contacts), str(contents), "--config", str(cfg),
             "--outdir", str(tmp_path / "out")]
        )
        assert code == 3
        assert capsys.readouterr().err == f"error: {cfg}:3: {message}\n"

    def test_key_given_twice_cites_the_second_line(self, tmp_path, sim_fixture, capsys):
        # the last line of a repeated key used to win, so the bad first
        # value was never reported and the run exited 0
        contacts, contents = sim_fixture
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("top_n = -1\nstep_length_s = 30\ntop_n = 5\n")
        code = cli.main(
            ["simulate", str(contacts), str(contents), "--config", str(cfg),
             "--outdir", str(tmp_path / "out")]
        )
        assert code == 3
        assert capsys.readouterr().err == f"error: {cfg}:3: top_n is given twice (first on line 1)\n"

    def test_negative_history_span_cites_file_and_line(self, tmp_path, sim_fixture, capsys):
        # a negative span emptied the history on every observation, so a
        # threshold policy downloaded every item
        contacts, contents = sim_fixture
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("download_policy = mean_threshold\ndownload_history_s = -10\n")
        code = cli.main(
            ["simulate", str(contacts), str(contents), "--config", str(cfg),
             "--outdir", str(tmp_path / "out")]
        )
        assert code == 3
        assert capsys.readouterr().err == f"error: {cfg}:2: download_history_s must be >= 0\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            # the file of test_config_value_error_cites_file_and_line sets
            # step_length_s and metric_cadence, so their cases are here
            ("step_length_s = 0", "step_length_s must be positive"),
            ("metric_cadence = 0", "metric_cadence must be >= 1"),
        ],
    )
    def test_range_error_names_the_key(self, tmp_path, sim_fixture, capsys, text, message):
        # SimConfig's checks name its fields (step_length, affinity_weight,
        # ...), and those used to reach the user in place of the keys
        contacts, contents = sim_fixture
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"{text}\n")
        code = cli.main(
            ["simulate", str(contacts), str(contents), "--config", str(cfg),
             "--outdir", str(tmp_path / "out")]
        )
        assert code == 3
        assert capsys.readouterr().err == f"error: {cfg}:1: {message}\n"

    def test_manifest_config_is_flat(self, tmp_path, sim_fixture):
        contacts, contents = sim_fixture
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("download_policy = percentile_threshold\ndownload_percentile = 90\n")
        out = tmp_path / "out"
        assert cli.main(
            ["simulate", str(contacts), str(contents), "--config", str(cfg), "--outdir", str(out)]
        ) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["download_policy"] == "percentile_threshold"
        assert config["download_percentile"] == 90.0


class TestInputEncoding:
    """Every input file is UTF-8, with or without a BOM, with LF or CRLF line ends."""

    TEXTS = {
        "contacts": "time_s,agent_a,agent_b\n60,a1,a3\n# seen on site\n240,a2,a3\n",
        "contents": "time_s,agent,item_key,tags\n0,a1,i1,x;café\n120,a2,i2,y\n",
        "config": "# run\nmetric_cadence = 2\ntop_n = 3\n",
        "graph": "# snapshot\nUI\tu1\ti1\t5\nIT\ti1\tcafé\t5\n",
    }
    READERS = {
        "contacts": parse_contacts,
        "contents": parse_contents,
        "config": parse_config_file,
        "graph": load_graph_tsv,
    }

    @pytest.mark.parametrize("kind", sorted(TEXTS))
    def test_bom_and_crlf_read_as_plain(self, tmp_path, kind):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(self.TEXTS[kind].encode())
        marked.write_bytes(b"\xef\xbb\xbf" + self.TEXTS[kind].replace("\n", "\r\n").encode())
        read = self.READERS[kind]
        assert read(marked) == read(plain)

    @pytest.mark.parametrize("kind", sorted(TEXTS))
    @pytest.mark.parametrize("lineno", [1, 2, 3])
    def test_non_utf8_byte_exits_2_citing_its_line(
        self, tmp_path, sim_fixture, capsys, kind, lineno
    ):
        # a Latin-1 e-acute on line ``lineno`` and on a comment after it
        lines = self.TEXTS[kind].encode().splitlines(keepends=True)
        lines[lineno - 1] = lines[lineno - 1].replace(b"\n", b"\xe9\n")
        lines.append(b"# caf\xe9\n")
        path = tmp_path / f"input.{kind}"
        path.write_bytes(b"".join(lines))
        contacts, contents = map(str, sim_fixture)
        simulate = ["simulate", "--outdir", str(tmp_path / "out")]
        argv = {
            "contacts": [*simulate, str(path), contents],
            "contents": [*simulate, contacts, str(path)],
            "config": [*simulate, contacts, contents, "--config", str(path)],
            "graph": ["recommend", str(path), "u1"],
        }[kind]
        assert cli.main(argv) == cli.EXIT_PARSE
        assert capsys.readouterr().err == f"error: {path}:{lineno}: byte 0xe9 is not UTF-8\n"

    def test_parsed_keys_are_shared(self, tmp_path):
        contacts, contents = tmp_path / "contacts.csv", tmp_path / "contents.csv"
        contacts.write_text("10,agent1,agent2\n20,agent2,agent1\n")
        contents.write_text("0,agent1,item1,t1\n5,agent1,item1,t2\n")
        trace = parse_contacts(contacts)
        assert (trace.a.tolist(), trace.b.tolist(), trace.agents) == (
            [0, 1], [1, 0], ["agent1", "agent2"]
        )
        first, second = parse_contents(contents)
        assert first.creator is second.creator and first.item is second.item


class TestCliRecommend:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "graph.tsv"
        save_graph_tsv(eq1_hand_graph(), path)
        return path

    def test_hand_graph_pliers(self, graph_file, capsys):
        code = cli.main(
            ["recommend", str(graph_file), "u_t", "--algorithm", "pliers", "--lambda", "1"]
        )
        assert code == 0
        assert capsys.readouterr().out == "rank,item,score\n1,i2,0.25\n"

    def test_unknown_user_exits_4_with_empty_stdout(self, graph_file, capsys):
        assert cli.main(["recommend", str(graph_file), "ghost"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ghost" in captured.err

    def test_item_and_tag_key_is_not_a_user(self, tmp_path, capsys):
        path = tmp_path / "graph.tsv"
        g = eq1_hand_graph()
        g.add_content("u2", "i3", ["i1"], 3)
        save_graph_tsv(g, path)
        assert cli.main(["recommend", str(path), "i1"]) == 4
        assert capsys.readouterr().out == ""

    def test_top_n_zero_prints_header_only(self, graph_file, capsys):
        code = cli.main(["recommend", str(graph_file), "u_t", "--top-n", "0"])
        assert code == 0
        assert capsys.readouterr().out == "rank,item,score\n"

    def test_unknown_algorithm_exits_3(self, graph_file):
        assert cli.main(["recommend", str(graph_file), "u_t", "--algorithm", "x"]) == 3

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--lambda", "-1"], "--lambda must lie in [0, 1], got -1.0"),
            (["--algorithm", "hybrid", "--lambda", "1.5"], "--lambda must lie in [0, 1], got 1.5"),
            (["--algorithm", "cf", "--k", "0"], "--k must be >= 1, got 0"),
            (["--algorithm", "tagexp", "--k", "-2"], "--k must be >= 1, got -2"),
            (["--top-n", "-3"], "--top-n must be >= 0, got -3"),
        ],
    )
    def test_bad_values_exit_3_before_the_graph_is_read(self, tmp_path, capsys, flags, message):
        missing = tmp_path / "missing.tsv"
        assert cli.main(["recommend", str(missing), "u_t", *flags]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_values_a_scorer_does_not_use_are_not_checked(self, graph_file):
        args = ["recommend", str(graph_file), "u_t", "--algorithm", "probs"]
        assert cli.main([*args, "--k", "0", "--lambda", "5"]) == cli.EXIT_OK


class TestCliLinkpred:
    @pytest.fixture
    def graph_file(self, tmp_path):
        from pliersim.synth import generate_folksonomy

        path = tmp_path / "graph.tsv"
        save_graph_tsv(generate_folksonomy(40, 80, 25, 3), path)
        return path

    def test_k_sweep_emits_rows_per_baseline(self, graph_file, capsys):
        code = cli.main(
            [
                "linkpred",
                str(graph_file),
                "--algorithms",
                "pliers",
                "cf",
                "tagexp",
                "--k",
                "5",
                "10",
                "20",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "algorithm,k,precision,recall,removed_fraction"
        algo_k = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert algo_k == [
            ("pliers", ""),
            ("cf", "5"),
            ("cf", "10"),
            ("cf", "20"),
            ("tagexp", "5"),
            ("tagexp", "10"),
            ("tagexp", "20"),
        ]

    def test_same_seed_same_report(self, graph_file, capsys):
        cli.main(["linkpred", str(graph_file), "--algorithms", "probs", "--seed", "5"])
        first = capsys.readouterr().out
        cli.main(["linkpred", str(graph_file), "--algorithms", "probs", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_unknown_algorithm_exits_3(self, graph_file):
        assert cli.main(["linkpred", str(graph_file), "--algorithms", "magic"]) == 3

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k", "0"], "--k must be >= 1, got 0"),
            (["--algorithms", "tagexp", "--k", "5", "0"], "--k must be >= 1, got 0"),
            (["--lambda", "2"], "--lambda must lie in [0, 1], got 2.0"),
            (["--algorithms", "hybrid", "--lambda", "-0.5"], "--lambda must lie in [0, 1], got -0.5"),
            (["--top-n", "-1"], "--top-n must be >= 0, got -1"),
        ],
    )
    def test_bad_values_exit_3_before_the_graph_is_read(self, tmp_path, capsys, flags, message):
        missing = tmp_path / "missing.tsv"
        assert cli.main(["linkpred", str(missing), *flags]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_report_file_and_manifest(self, graph_file, tmp_path):
        out = tmp_path / "report.csv"
        code = cli.main(
            ["linkpred", str(graph_file), "--algorithms", "heats", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
        assert manifest["command"] == "linkpred"


class TestHashSeed:
    """CLI output bytes do not depend on string hash randomization."""

    @staticmethod
    def _run(args, hash_seed):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "pliersim", *args],
            env=env, capture_output=True, timeout=120, check=True,
        )
        return done.stdout

    def test_linkpred_and_recommend_ignore_hash_seed(self, tmp_path):
        from pliersim.synth import generate_folksonomy

        path = tmp_path / "graph.tsv"
        graph = generate_folksonomy(40, 80, 25, 3)
        save_graph_tsv(graph, path)
        user = max(sorted(graph.users), key=lambda u: len(graph.items_of_user(u)))
        commands = [
            ["linkpred", str(path), "--k", "3", "10", "--seed", "2"],
            *(
                ["recommend", str(path), user, "--algorithm", name, "--k", "3"]
                for name in ("pliers", "hybrid", "tagexp")
            ),
        ]
        for args in commands:
            outputs = [self._run(args, seed) for seed in (0, 1)]
            assert outputs[0].count(b"\n") > 2
            assert outputs[0] == outputs[1], args

    def test_simulate_ignores_hash_seed(self, tmp_path):
        contacts, contents = tmp_path / "contacts.csv", tmp_path / "contents.csv"
        assert cli.main(
            ["gen-traces", "--agents", "30", "--communities", "6", "--duration-s", "1800",
             "--seed", "4", "--items", "60", "--tags", "30",
             "--contacts-out", str(contacts), "--contents-out", str(contents)]
        ) == 0
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "metric_cadence = 3\nexpiry_window_s = 600\ntop_n = 5\n"
            "download_policy = percentile_threshold\ndownload_history_s = 300\n"
        )
        outputs = []
        for seed in (0, 1):
            outdir = tmp_path / f"out{seed}"
            self._run(["simulate", str(contacts), str(contents), "--config", str(cfg),
                       "--outdir", str(outdir)], seed)
            outputs.append([(outdir / name).read_bytes()
                            for name in ("metrics.csv", "correlation.csv")])
        assert outputs[0][0].count(b"\n") > 10
        assert outputs[0] == outputs[1]


class TestImports:
    def test_linkpred_and_recommend_load_no_engine(self, tmp_path):
        """The two graph commands import neither the replay engine nor the generators."""
        path = tmp_path / "graph.tsv"
        save_graph_tsv(eq1_hand_graph(), path)
        script = (
            "import sys\n"
            "from pliersim import cli\n"
            f"assert cli.main(['linkpred', {str(path)!r}, '--k', '2']) == 0\n"
            f"assert cli.main(['recommend', {str(path)!r}, 'u_t']) == 0\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('pliersim'))))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
            check=True,
        )
        loaded = done.stdout.splitlines()[-1].split()
        assert "pliersim.recommend" in loaded and "pliersim.traces" in loaded
        assert "pliersim.simulator" not in loaded and "pliersim.synth" not in loaded


    def test_synth_loads_no_engine(self):
        """Generating contents and folksonomies imports no replay engine."""
        script = (
            "import sys\n"
            "import pliersim.synth\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('pliersim'))))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
            check=True,
        )
        loaded = done.stdout.splitlines()[-1].split()
        assert "pliersim.synth" in loaded and "pliersim.traces" in loaded
        assert "pliersim.simulator" not in loaded

    def test_replay_starts_recommend_before_numpy(self):
        """Importing the replay engine starts ``recommend`` before numpy, as its comment explains."""
        script = (
            "import sys\n"
            "started = []\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        started.append(name)\n"
            "sys.meta_path.insert(0, Spy())\n"
            "import pliersim.simulator\n"
            "print(' '.join(started))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
            check=True,
        )
        started = done.stdout.split()
        assert started.index("pliersim.recommend") < started.index("numpy")


class TestCliGenTraces:
    def test_generates_parseable_traces(self, tmp_path):
        contacts_out = tmp_path / "contacts.csv"
        contents_out = tmp_path / "contents.csv"
        code = cli.main(
            [
                "gen-traces",
                "--agents",
                "12",
                "--communities",
                "3",
                "--rewiring-p",
                "0",
                "--duration-s",
                "600",
                "--seed",
                "3",
                "--contacts-out",
                str(contacts_out),
                "--contents-out",
                str(contents_out),
                "--items",
                "40",
                "--tags",
                "15",
            ]
        )
        assert code == 0
        trace = parse_contacts(contacts_out)
        content_events = parse_contents(contents_out)
        assert trace.times and content_events
        community = {f"a{i:04d}": i % 3 for i in range(12)}
        assert all(
            community[trace.agents[x]] == community[trace.agents[y]]
            for x, y in zip(trace.a, trace.b)
        )
        assert all(len(e.tags) >= 1 for e in content_events)
        assert (tmp_path / "contacts.csv.manifest.json").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--agents", "0"], "need 1 <= n_communities <= n_agents"),
            (["--agents", "4", "--duration-s", "0"], "duration must be >= 1"),
            (["--agents", "4", "--items", "-1"], "need n_agents >= 1, n_items >= 0, n_tags >= 1"),
            (["--agents", "4", "--extra-tag-p", "1.5"], "extra_tag_p must lie in [0, 1]"),
            (["--agents", "4", "--extra-tag-p=-1"], "extra_tag_p must lie in [0, 1]"),
            (["--agents", "4", "--extra-tag-p", "nan"], "extra_tag_p must lie in [0, 1]"),
            (
                ["--agents", "4", "--user-exponent=-inf"],
                "exponent -inf gives power weights that are not finite and > 0",
            ),
            (
                ["--agents", "4", "--tag-exponent=-1e308"],
                "exponent -1e+308 gives power weights that are not finite and > 0",
            ),
            (
                ["--agents", "4", "--user-exponent", "1e308"],
                "exponent 1e+308 gives power weights that are not finite and > 0",
            ),
        ],
    )
    def test_bad_values_exit_3(self, tmp_path, capsys, flags, message):
        contacts_out = tmp_path / "c.csv"
        args = ["gen-traces", "--communities", "2", "--duration-s", "600", *flags]
        args += ["--contacts-out", str(contacts_out), "--contents-out", str(tmp_path / "m.csv")]
        assert cli.main(args) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_negative_duration_exits_3(self, tmp_path, capsys):
        # without --contents-out this wrote a header-only trace and exited 0
        args = ["gen-traces", "--agents", "4", "--communities", "2", "--duration-s=-60",
                "--contacts-out", str(tmp_path / "c.csv")]
        assert cli.main(args) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: duration must be >= 0\n"
        assert not any(tmp_path.iterdir())

    def test_exponent_form_needs_the_joined_flag(self, tmp_path, capsys):
        # argparse reads "-1e3" as an option, so only "--user-exponent=-1e3"
        # reaches the generator; the help says so
        args = ["gen-traces", "--agents", "4", "--communities", "2", "--duration-s", "600",
                "--contacts-out", str(tmp_path / "c.csv"), "--user-exponent", "-1e3"]
        with pytest.raises(SystemExit) as done:
            cli.main(args)
        assert done.value.code == 2
        assert "--user-exponent: expected one argument" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli.main(["gen-traces", "--help"])
        assert "--user-exponent=-1e3" in capsys.readouterr().out

    def test_contents_default_to_the_generators_shape(self, tmp_path):
        # without shape flags, gen-traces writes what the generator's defaults give
        contents_out = tmp_path / "m.csv"
        args = ["gen-traces", "--agents", "20", "--communities", "4", "--duration-s", "1200",
                "--seed", "5", "--items", "80", "--tags", "30",
                "--contacts-out", str(tmp_path / "c.csv"), "--contents-out", str(contents_out)]
        assert cli.main(args) == 0
        assert parse_contents(contents_out) == generate_synthetic_contents(20, 80, 30, 1200, 5)

    def test_generated_traces_feed_simulate(self, tmp_path):
        contacts_out = tmp_path / "c.csv"
        contents_out = tmp_path / "m.csv"
        cli.main(
            [
                "gen-traces",
                "--agents",
                "8",
                "--communities",
                "2",
                "--duration-s",
                "300",
                "--seed",
                "1",
                "--contacts-out",
                str(contacts_out),
                "--contents-out",
                str(contents_out),
                "--items",
                "10",
                "--tags",
                "6",
            ]
        )
        out = tmp_path / "sim"
        code = cli.main(["simulate", str(contacts_out), str(contents_out), "--outdir", str(out)])
        assert code == 0
        assert (out / "metrics.csv").read_text().count("\n") >= 5

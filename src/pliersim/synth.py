"""Synthetic content streams and static folksonomy graphs.

Stand-ins for trace datasets: a long-tailed content stream to feed the
simulator, and a topically clustered folksonomy whose structure is
learnable enough for link-prediction experiments. Both are deterministic
for a fixed seed.
"""

from __future__ import annotations

import random

from .graph import FolksonomyGraph
from .simulator import ContentEvent, agent_name


def item_name(index: int) -> str:
    return f"i{index:05d}"


def tag_name(index: int) -> str:
    return f"t{index:04d}"


def _power_weights(n: int, exponent: float) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(n)]


def _draw_tag_count(rng: random.Random, extra_tag_p: float, max_tags: int) -> int:
    count = 1
    while count < max_tags and rng.random() < extra_tag_p:
        count += 1
    return count


def generate_synthetic_contents(
    n_agents: int,
    n_items: int,
    n_tags: int,
    duration: int,
    rng_seed: int,
    user_exponent: float = 1.0,
    tag_exponent: float = 1.0,
    extra_tag_p: float = 0.53,
    max_tags_per_item: int = 13,
) -> list[ContentEvent]:
    """Content stream with long-tailed creator activity and tag popularity.

    Creators and tags are drawn from discrete power laws over their ranks,
    item times are uniform over [0, duration), and the tag count per item is
    geometric, starting at 1 and capped at ``max_tags_per_item``; the default
    continuation probability gives a long-run mean near 2.1 tags per item.
    """
    if n_agents < 1 or n_items < 0 or n_tags < 1:
        raise ValueError("need n_agents >= 1, n_items >= 0, n_tags >= 1")
    if max_tags_per_item < 1:
        raise ValueError("max_tags_per_item must be >= 1")
    if duration < 1:
        raise ValueError("duration must be >= 1")
    rng = random.Random(rng_seed)
    agents = [agent_name(i) for i in range(n_agents)]
    tags = [tag_name(i) for i in range(n_tags)]
    agent_w = _power_weights(n_agents, user_exponent)
    tag_w = _power_weights(n_tags, tag_exponent)

    times = sorted(rng.randrange(duration) for _ in range(n_items))
    events = []
    for idx in range(n_items):
        creator = rng.choices(agents, weights=agent_w, k=1)[0]
        want = _draw_tag_count(rng, extra_tag_p, min(max_tags_per_item, n_tags))
        chosen: list[str] = []
        while len(chosen) < want:
            tag = rng.choices(tags, weights=tag_w, k=1)[0]
            if tag not in chosen:
                chosen.append(tag)
        events.append(ContentEvent(times[idx], creator, item_name(idx), tuple(chosen)))
    return events


# shape of generate_folksonomy graphs
_MAX_TOPICS = 20  # topics = min(this, n_tags // 2), at least 1
_ADOPTIONS_PER_USER = (11, 17)  # inclusive range, drawn per user
_CREATOR_EXPONENT = 0.8  # power law over user ranks for item creation
_TAG_EXPONENT = 0.9  # power law over tag ranks
_EXTRA_TAG_P = 0.5  # chance of one more tag per item past the minimum
_MIN_TAGS_PER_ITEM = 2
_MAX_TAGS_PER_ITEM = 13
_SECONDARY_TOPIC_P = 0.35  # chance a user draws a second topic
_OFF_TOPIC_P = 0.01  # chance an adoption draws from all items
_ATTACHMENT_EXPONENT = 1.2  # adoption weight grows as popularity ** this
_TASTE_SIZE = (2, 3)  # inclusive range of taste tags per user topic
_TASTE_EXPONENT = 3.0  # adoption weight grows as (1 + taste matches) ** this


def generate_folksonomy(n_users: int, n_items: int, n_tags: int, rng_seed: int) -> FolksonomyGraph:
    """Static folksonomy with topical communities and long-tailed popularity.

    Tags belong to topics (tag names are shuffled so key order carries no
    popularity information); each user holds one or two topics plus a small
    personal "taste" tag set inside them. Items are created with the
    creator's taste tags first, padded from the topic pool. Users then adopt
    items from their topics, weighted by popularity (preferential
    attachment) and by taste-tag matches, so item popularity is long-tailed
    while each user's links stay predictable from shared adopters *and*
    shared labels.
    """
    if n_users < 1 or n_items < 1 or n_tags < 1:
        raise ValueError("need n_users >= 1, n_items >= 1, n_tags >= 1")
    n_topics = max(1, min(_MAX_TOPICS, n_tags // 2))
    rng = random.Random(rng_seed)
    users = [f"u{i:04d}" for i in range(n_users)]
    tags = [tag_name(i) for i in range(n_tags)]
    rng.shuffle(tags)
    tag_w = _power_weights(n_tags, _TAG_EXPONENT)
    topic_tags: dict[int, list[str]] = {t: [] for t in range(n_topics)}
    topic_tag_w: dict[int, list[float]] = {t: [] for t in range(n_topics)}
    for rank, tag in enumerate(tags):
        topic = rank % n_topics
        topic_tags[topic].append(tag)
        topic_tag_w[topic].append(tag_w[rank])

    user_topics: dict[str, list[int]] = {}
    user_taste: dict[str, set[str]] = {}
    for u in users:
        topics = [rng.randrange(n_topics)]
        if rng.random() < _SECONDARY_TOPIC_P:
            other = rng.randrange(n_topics)
            if other != topics[0]:
                topics.append(other)
        user_topics[u] = topics
        taste: set[str] = set()
        for topic in topics:
            pool, pool_w = topic_tags[topic], topic_tag_w[topic]
            want = min(len(pool), rng.randint(*_TASTE_SIZE))
            while len(taste & set(pool)) < want:
                taste.add(rng.choices(pool, weights=pool_w, k=1)[0])
        user_taste[u] = taste

    graph = FolksonomyGraph()
    creator_w = _power_weights(n_users, _CREATOR_EXPONENT)
    item_topic: dict[str, int] = {}
    item_tags: dict[str, tuple[str, ...]] = {}
    clock = 0
    for idx in range(n_items):
        creator = rng.choices(users, weights=creator_w, k=1)[0]
        topics = user_topics[creator]
        topic = topics[0] if (len(topics) == 1 or rng.random() < 0.7) else topics[1]
        pool, pool_w = topic_tags[topic], topic_tag_w[topic]
        want = min(_MIN_TAGS_PER_ITEM, len(pool))
        limit = min(_MAX_TAGS_PER_ITEM, len(pool))
        while want < limit and rng.random() < _EXTRA_TAG_P:
            want += 1
        chosen = sorted(user_taste[creator] & set(pool))[:want]
        while len(chosen) < want:
            tag = rng.choices(pool, weights=pool_w, k=1)[0]
            if tag not in chosen:
                chosen.append(tag)
        item = item_name(idx)
        graph.add_content(creator, item, chosen, clock)
        item_topic[item] = topic
        item_tags[item] = tuple(chosen)
        clock += 1

    by_topic: dict[int, list[str]] = {t: [] for t in range(n_topics)}
    for item, topic in item_topic.items():
        by_topic[topic].append(item)
    popularity = {item: 1 for item in item_topic}

    lo, hi = _ADOPTIONS_PER_USER
    all_items = sorted(item_topic)
    for u in users:
        pool = []
        for topic in user_topics[u]:
            pool.extend(by_topic[topic])
        if not pool:
            pool = all_items
        owned = graph.items_of_user(u)
        taste = user_taste[u]

        def weight(i: str) -> float:
            return (
                popularity[i] ** _ATTACHMENT_EXPONENT
                * (1 + len(taste & set(item_tags[i]))) ** _TASTE_EXPONENT
            )

        # only this user's adoptions change popularity while it adopts, so
        # the pool weights are built once and refreshed one entry at a time
        pool_w = [weight(i) for i in pool]
        position = {item: n for n, item in enumerate(pool)}
        for _ in range(rng.randint(lo, hi)):
            source = all_items if rng.random() < _OFF_TOPIC_P else pool
            weights = pool_w if source is pool else [weight(i) for i in source]
            for _attempt in range(8):
                item = rng.choices(source, weights=weights, k=1)[0]
                if item not in owned:
                    graph.add_content(u, item, item_tags[item], clock)
                    popularity[item] += 1
                    if item in position:
                        pool_w[position[item]] = weight(item)
                    clock += 1
                    break
    return graph


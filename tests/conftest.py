import random

import pytest

from pliersim.graph import FolksonomyGraph


def build_random_graph(
    rng: random.Random,
    max_users: int = 20,
    max_items: int = 20,
    max_tags: int = 15,
    adopt_p: float = 0.25,
    min_users: int = 2,
    min_items: int = 1,
    min_tags: int = 1,
) -> FolksonomyGraph:
    """Random folksonomy where every item has a creator and >= 1 tag."""
    n_users = rng.randint(min_users, max_users)
    n_items = rng.randint(min_items, max_items)
    n_tags = rng.randint(min_tags, max_tags)
    users = [f"u{i}" for i in range(n_users)]
    tags = [f"t{i}" for i in range(n_tags)]
    g = FolksonomyGraph()
    for idx in range(n_items):
        creator = rng.choice(users)
        item_tags = rng.sample(tags, rng.randint(1, min(3, n_tags)))
        g.add_content(creator, f"i{idx}", item_tags, idx)
        for u in users:
            if u != creator and rng.random() < adopt_p:
                g.add_content(u, f"i{idx}", item_tags, idx + n_items)
    return g


def assert_items_owned_and_tagged(graph: FolksonomyGraph) -> None:
    """Every item of ``graph`` has a user link and a tag link."""
    owned = {i for _, i in graph.user_item_edges}
    tagged = {i for i, _ in graph.item_tag_edges}
    assert owned == tagged, f"items without a tag or a user: {sorted(owned ^ tagged)}"


def random_target(rng: random.Random, graph: FolksonomyGraph) -> str:
    return rng.choice(sorted(graph.users))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def eq1_hand_graph() -> FolksonomyGraph:
    """u_t owns i1; u2 owns i1 and i2; every item tagged the same single tag."""
    g = FolksonomyGraph()
    g.add_content("u_t", "i1", ["t1"], 0)
    g.add_content("u2", "i1", ["t1"], 1)
    g.add_content("u2", "i2", ["t1"], 2)
    return g

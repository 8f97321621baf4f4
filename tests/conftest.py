import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from chei2d import DirectedGraph, StochasticOperator, parse_edge_list, synth_scale_free

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.register_profile("fast", max_examples=10, deadline=None)
settings.load_profile("default")

THREE_CYCLE = "1 2\n2 3\n3 1\n"
CHAIN = "1 2\n2 3\n"


def bernoulli_graph(seed: int, n: int = 30, density: float = 0.1) -> DirectedGraph:
    """Seeded Erdos-Renyi style directed graph used across the suite."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    src, dst = np.nonzero(mask)
    return DirectedGraph.from_links(n, src + 1, dst + 1)


def fixture_graphs() -> list[tuple[str, DirectedGraph]]:
    """Small named battery exercising cycles, chains, hubs, dangling
    nodes, self-loops and random structure."""
    star_in = "".join(f"{i} 11\n" for i in range(1, 11))
    star_out = "".join(f"11 {i}\n" for i in range(1, 11))
    battery = [
        ("three_cycle", parse_edge_list(THREE_CYCLE)),
        ("chain", parse_edge_list(CHAIN)),
        ("star_in", parse_edge_list(star_in)),
        ("star_out", parse_edge_list(star_out)),
        ("dangling_only", parse_edge_list("N 5\n")),
        ("self_loop", parse_edge_list("1 1\n1 2\n2 3\n")),
        ("synthetic", synth_scale_free(60, 2.1, 2.7, seed=5)),
    ]
    battery += [(f"bernoulli_{s}", bernoulli_graph(s, n=20 + 3 * s)) for s in range(4)]
    return battery


@pytest.fixture
def three_cycle() -> DirectedGraph:
    return parse_edge_list(THREE_CYCLE)


@pytest.fixture
def chain3() -> DirectedGraph:
    return parse_edge_list(CHAIN)


@pytest.fixture
def builds(monkeypatch):
    """The ``reverse`` of every operator built while the test runs."""
    built = []
    init = StochasticOperator.__init__

    def counted(self, graph, alpha=0.85, *, reverse=False):
        built.append(reverse)
        init(self, graph, alpha, reverse=reverse)

    monkeypatch.setattr(StochasticOperator, "__init__", counted)
    return built

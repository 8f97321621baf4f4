"""Shared hypothesis strategies for graph and ranking inputs."""

import hypothesis.strategies as st
import numpy as np

from chei2d import DirectedGraph
from oracle import ranking_from_probabilities


@st.composite
def graphs(draw, min_nodes=1, max_nodes=12, max_links=40, weighted=False, collapse=True):
    """Random graphs; ``collapse=False`` keeps parallel links, each with its
    own weight when ``weighted``."""
    n = draw(st.integers(min_nodes, max_nodes))
    pairs = draw(
        st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=max_links)
    )
    src = [s for s, _ in pairs]
    dst = [d for _, d in pairs]
    weights = None
    if weighted and pairs:
        weights = draw(
            st.lists(
                st.floats(0.125, 8.0), min_size=len(pairs), max_size=len(pairs)
            )
        )
    return DirectedGraph.from_links(n, src, dst, weights, weighted=weighted, collapse=collapse)


@st.composite
def link_lines(draw, max_nodes=15, max_links=40):
    return draw(
        st.lists(
            st.tuples(st.integers(1, max_nodes), st.integers(1, max_nodes)),
            max_size=max_links,
        )
    )


@st.composite
def prob_vectors(draw, min_n=1, max_n=16):
    n = draw(st.integers(min_n, max_n))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    v = np.asarray(raw)
    if v.sum() == 0.0:
        v = np.ones(n)
    return v / v.sum()


@st.composite
def rankings(draw, min_n=2, max_n=16):
    n = draw(st.integers(min_n, max_n))
    p = draw(st.lists(st.floats(0.001, 1.0), min_size=n, max_size=n))
    ps = draw(st.lists(st.floats(0.001, 1.0), min_size=n, max_size=n))
    return ranking_from_probabilities(np.asarray(p), np.asarray(ps))


@st.composite
def walk_graphs(draw):
    """Graphs for the link-block walk: weighted or not, collapsed or not,
    often with one hub row of 8 to 20 distinct heads, longer than the
    small blocks the tests force; empty and dangling rows come from the
    random links."""
    weighted, collapse = draw(st.booleans()), draw(st.booleans())
    n = draw(st.integers(1, 30))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=40))
    if n >= 8 and draw(st.booleans()):
        hub = draw(st.integers(1, n))
        heads = draw(st.lists(st.integers(1, n), min_size=8, max_size=20, unique=True))
        pairs += [(hub, d) for d in heads]
    weights = draw(st.lists(st.floats(0.125, 8.0), min_size=len(pairs),
                            max_size=len(pairs))) if weighted else None
    return DirectedGraph.from_links(n, [s for s, _ in pairs], [d for _, d in pairs], weights,
                                    weighted=weighted, collapse=collapse)

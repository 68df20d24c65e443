"""The backward search listed state by state, as the tests read it.

`discover` hands out every state that `backward.search` finds, its row
sliced by width, with its depth, in the search's order, so that the tests
can check the order, the seeds, the budget and the depth limit one state
at a time.
The CLI's listing and `backward_search` read the same rows of packed
states directly.
"""

from __future__ import annotations

from bmn.backward import BackwardSearchConfig, _state, search


def discover(seed_states, config: BackwardSearchConfig):
    """Yield (depth, state) for each state of a breadth-first backward search.

    Every distinct seed comes first, at depth 0. Each later level holds the
    predecessors of the level before it that were not seen yet, in
    discovery order. Expansion stops at config.max_depth, or as soon as
    config.max_nodes states (seeds included) are known. The search runs to
    these limits before the first state is yielded.
    """
    states, depths = search(seed_states, config)
    width = len(states) // max(len(depths), 1)
    for i, depth in enumerate(depths):
        yield depth, _state(states[i * width:(i + 1) * width])

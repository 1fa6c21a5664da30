"""Tier-1 promotion of the tagging-ablation containment assertions.

The nightly ablation benchmark (``benchmarks/test_ablation_tagging.py``)
checks that each extra protection knob only ever *removes* taggable
instructions, via dynamic tagged fractions.  This fast test pins the
same monotonicity set-wise on the static tagged sets — strictly stronger
than the fraction ordering, and cheap enough to fail in tier 1 before a
tagging regression reaches the bench.  Computed from the def-use facts
(:func:`~repro.compiler.passes.compute_def_use`), which are asserted
equal to the tagging pass's decisions in ``tests/test_analysis.py``, so
no test mutates the apps' canonical tags.
"""

import pytest

from repro.apps import suite_apps
from repro.compiler.passes import ControlTaggingPass, compute_def_use


def _tagged_sets(program):
    """Tag decisions under each ablation option, from the def-use facts."""
    default = compute_def_use(program).tagged_sites()
    addresses = compute_def_use(program,
                                protect_addresses=True).tagged_sites()
    memory = compute_def_use(program, protect_addresses=True,
                             track_memory=True).tagged_sites()
    no_stack = compute_def_use(program).tagged_sites(
        protect_stack_registers=False)
    return default, addresses, memory, no_stack


@pytest.mark.parametrize("name", ["susan", "adpcm"])
def test_option_tags_are_setwise_contained(name):
    program = suite_apps("small")[name].program()
    default, addresses, memory, no_stack = _tagged_sets(program)
    # Every knob is monotone: more conservative = fewer tagged sites.
    assert memory <= addresses <= default <= no_stack
    # And the knobs actually do something on real programs.
    assert memory < default < no_stack


@pytest.mark.parametrize("name", ["susan", "adpcm"])
def test_fraction_ordering_follows_from_containment(name):
    """The exact ordering the nightly bench asserts on dynamic fractions,
    pinned here on static counts."""
    program = suite_apps("small")[name].program()
    default, addresses, memory, no_stack = _tagged_sets(program)
    assert len(memory) <= len(addresses) <= len(default) <= len(no_stack)


def test_facts_match_mutating_pass_under_options():
    """The def-use sets above stand in for the real pass — prove it for
    one app under the most intricate option combination (track_memory),
    restoring the canonical tags afterwards."""
    program = suite_apps("small")["adpcm"].program()
    try:
        report = ControlTaggingPass(protect_addresses=True,
                                    track_memory=True).run(program)
        facts = compute_def_use(program, protect_addresses=True,
                                track_memory=True)
        assert facts.tagged_sites() == frozenset(report.tagged_indices)
    finally:
        ControlTaggingPass().run(program)

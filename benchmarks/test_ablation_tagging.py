"""Ablation benchmark: design choices of the control-data tagging pass.

DESIGN.md calls out two knobs beyond the paper's strict rule: protecting
memory-address operands and conservatively tracking memory.  This benchmark
quantifies how each choice changes the fraction of dynamic instructions
that may run on unreliable hardware (more protection = less opportunity).
"""

from repro.apps import SUITES
from repro.compiler.passes import ControlTaggingPass
from repro.core import format_table
from repro.sim import Machine


def _tagged_fraction(app, **options) -> float:
    program = app.program()
    ControlTaggingPass(**options).run(program)
    machine = Machine(program)
    app.apply_workload(machine, app.generate_workload(0))
    result = machine.run()
    fraction = 100.0 * result.statistics.tagged_fraction
    # Restore the default tagging so other benchmarks see canonical tags.
    ControlTaggingPass().run(program)
    return fraction


def test_ablation_tagging_options(benchmark, campaign_spec, show):
    suite = SUITES[campaign_spec.suite]()
    apps = [suite["adpcm"], suite["susan"], suite["mcf"]]

    def run_ablation():
        rows = []
        for app in apps:
            rows.append([
                app.name,
                _tagged_fraction(app),
                _tagged_fraction(app, protect_addresses=True),
                _tagged_fraction(app, protect_addresses=True, track_memory=True),
                _tagged_fraction(app, protect_stack_registers=False),
            ])
        return rows

    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    show(format_table(
        ["Application", "paper rule", "+protect addresses",
         "+track memory", "-protect sp/fp"],
        rows,
        title="Ablation: % dynamic instructions tagged low-reliability",
    ))
    for _, paper_rule, protect_addr, track_memory, no_stack in rows:
        assert track_memory <= protect_addr <= paper_rule <= no_stack + 1e-9

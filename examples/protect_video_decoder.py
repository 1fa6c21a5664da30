#!/usr/bin/env python3
"""Protecting a video codec: the paper's MPEG scenario.

Runs the MPEG-style benchmark with a growing number of injected soft errors
twice — once with only low-reliability instructions exposed (control data
protected) and once with every result-producing instruction exposed — and
prints the percentage of catastrophic failures and of bad frames for each,
the comparison behind the paper's Table 2 and Figure 2.
"""

from repro.apps import create_app
from repro.core import CampaignConfig, format_table
from repro.experiments import live_campaign
from repro.sim import ProtectionMode


def main() -> None:
    app = create_app("mpeg", width=8, height=8, frames=3)
    config = CampaignConfig(runs=5)
    rows = []
    for errors in (0, 2, 8, 20):
        protected = live_campaign(app, config, errors,
                                  ProtectionMode.PROTECTED)
        unprotected = live_campaign(app, config, errors,
                                    ProtectionMode.UNPROTECTED)
        for cell in (protected, unprotected):
            print(f"  {app.name}: {errors} errors, {cell.mode.value}: "
                  f"{cell.failure_percent:.0f}% failures")
        rows.append([
            errors,
            protected.failure_percent,
            protected.mean_fidelity,
            unprotected.failure_percent,
            unprotected.mean_fidelity,
        ])
    print()
    print(format_table(
        ["errors", "failures % (protected)", "bad frames % (protected)",
         "failures % (unprotected)", "bad frames % (unprotected)"],
        rows,
        title="MPEG decoder under soft errors: protecting control data",
    ))
    print("\nAs in the paper, protecting control data keeps the decoder "
          "alive; without it the same error counts crash or hang runs and "
          "waste far more frames.")


if __name__ == "__main__":
    main()

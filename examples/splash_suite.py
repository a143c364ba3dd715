#!/usr/bin/env python3
"""Run the synthetic SPLASH-2 suite and print the paper's Table 3.

This is the paper's headline experiment (paper §5): five applications on
a 32-processor system under TTS, QOLB and IQOLB.  Expect a couple of
minutes of wall time — the contended TTS runs simulate tens of millions
of coherence events.

Usage::

    python examples/splash_suite.py [n_processors] [app ...]

e.g. ``python examples/splash_suite.py 16 raytrace radiosity`` for a
quicker look.
"""

import sys

from repro.harness.experiment import table3
from repro.harness.tables import render_table3
from repro.workloads.splash import APP_ORDER

PAPER_TABLE3 = {
    "barnes": (7.5, 1.06, 1.06),
    "ocean": (6.0, 1.54, 1.52),
    "radiosity": (2.5, 6.37, 6.37),
    "raytrace": (1.5, 11.01, 10.75),
    "water-nsq": (18.1, 1.06, 1.06),
}


def main() -> None:
    n_processors = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    apps = sys.argv[2:] or APP_ORDER
    rows, _stats = table3(n_processors=n_processors, apps=apps)
    print(render_table3(rows, n_processors=n_processors))
    if n_processors == 32:
        print("\nPaper's Table 3 for comparison:")
        for app in apps:
            absolute, qolb, iqolb = PAPER_TABLE3[app]
            print(f"  {app:10s} TTS ({absolute})  QOLB {qolb}  IQOLB {iqolb}")


if __name__ == "__main__":
    main()

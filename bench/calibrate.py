"""Machine-speed calibration job for the benchmark.

    python3 bench/calibrate.py

A fixed pure-Python job that uses none of the program under test: it
generates the `transition` archive of 3000 application names, renders
it, splits the text back into stanzas and works out the oracle's forced
broken and forced installable sets.  run.py launches it as a fresh
process right before each CLI run and scales the CLI's times by it (see
README.md, "Scaling by the calibration job").  It prints the number of
stanzas and of forced-installable packages, which never change.
"""

import workloads
from oracle import Oracle

NAMES = 3000


def main() -> None:
    arc = workloads.transition(0, NAMES)
    text = arc.render().decode()
    stanzas = [dict(line.split(": ", 1) for line in block.splitlines())
               for block in text.split("\n\n")]
    print(len(stanzas), len(Oracle(arc.pkgs).forced_installable()))


if __name__ == "__main__":
    main()

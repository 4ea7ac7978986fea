"""Set-up time of one repository check, in a fresh process.

    python3 bench/setup_probe.py PACKAGES

Times the path from the file's bytes to a constructed
`RepositoryChecker` (decode, `parse_packages`, `expand`,
`build_repository`, encoding and engine init), with nothing wrapped, and
prints one JSON object: the seconds taken and the repository's size.
"""

import json
import sys
import time

from debcheck.expand import build_repository, expand
from debcheck.solver import RepositoryChecker
from debcheck.stanza import parse_packages


def main(path: str) -> None:
    with open(path, "rb") as f:
        data = f.read()
    started = time.monotonic()
    parsed = parse_packages(data.decode("utf-8", errors="replace"))
    repo = build_repository(expand(parsed.stanzas))
    RepositoryChecker(repo)
    elapsed = time.monotonic() - started
    print(json.dumps({"setup_s": elapsed, "packages": len(repo.packages)}))


if __name__ == "__main__":
    main(sys.argv[1])

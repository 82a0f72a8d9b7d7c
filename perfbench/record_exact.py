"""Write expected_exact.json: the stored outputs the `exact` workload is checked against.

    PYTHONPATH=src python perfbench/record_exact.py

Run it only when a change to the program's exact outputs is intended, and
say why in the change that commits the new file.  Long lists are stored as
their length and SHA-256 (see workloads.digest).
"""

import io
import json

from okamoto import cli

import workloads


def main() -> None:
    expected = {}
    for _, cmd in workloads.EXACT_COMMANDS:
        buf = io.StringIO()
        if cli.run(cmd.split(), stdout=buf) != 0:
            raise SystemExit(f"{cmd} failed: {buf.getvalue()}")
        expected[cmd] = workloads.digest(json.loads(buf.getvalue()))
    with open(workloads.EXPECTED_EXACT, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

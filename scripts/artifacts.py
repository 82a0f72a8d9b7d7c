#!/usr/bin/env python3
"""Write the stdout of a fixed list of okamoto commands to numbered files.

    PYTHONPATH=src python scripts/artifacts.py --out DIR

Each command runs through okamoto.cli.run with DIR as the working directory,
so the artifacts of its --out commands land in DIR under relative names.
Command i writes its stdout to DIR/NNN.out (NNN = i, three digits) and its
exit code to line i of DIR/exit_codes.txt ("escaped" when an exception
escapes cli.run, whose message then is the output); DIR/commands.txt lists
the commands in the same order.  Two source trees give byte-identical artifacts
when `diff -r` of their two output directories is empty.

The list covers every benchmark workload command at seeds 61-63, levelset
words (JSON and CSV) at rational and float levels, graph and grid boxdim
rows, separation gaps and witnesses, the subsystem checks at several block
lengths (the ratio check up to m = 13, gamma on int64 and on Python ints),
error outputs of checks made before any work, among them the float
paths at rationals whose floats round to 1/2 and to 1, level-set scans and
slices on both sides of the depth where level statistics stop counting one
whole sorted level and split each word into a prefix and that level's
suffix, scans and slices at depth 24, which only the split reaches,
subsystem draws whose alias tables hold more than 2^14 entries, scans at
both ends of the rule that sets the split's suffix depth from the level
count, a negative --seed on every seeded command, the formats no earlier
command prints (dims, lq and fourier as CSV, lq as JSON, the subsystem
entropy check, a box count above 2^63 and a CSV written to --out), the
refusals of the subsystem caps: samplers whose lambda near 1 would draw
words deeper than the sampling depth cap, more draws than sample_measure
takes, and alphabets past the word cap at m = 16, and last, as JSON and CSV,
the two branches no earlier command takes: a fourier probe whose frequencies
pass the bins capped at the sample count, which take the direct sum, and
separation gaps below the float range, whose roots come from logs.
"""

import argparse
import io
import os
import sys

from okamoto.cli import run

# the repository root, for perfbench
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.workloads import WORKLOADS, commands as workload_commands  # noqa: E402

# the benchmark's workload commands at seeds 61, 62 and 63, without repeats
WORKLOAD_COMMANDS = list(dict.fromkeys(
    cmd for seed in (61, 62, 63) for workload in WORKLOADS for _, cmd in workload_commands(workload, seed)
))

LEVELS = [
    ("3/4", "1/3"), ("3/4", "0"), ("3/4", "1"), ("3/4", "1/4"), ("2/3", "38/81"), ("943/944", "1/3"),
    ("944/945", "1/2"), ("0.75", "0.3"), ("0.75", "0"), ("0.75", "1"), ("0.9", "0.5"), ("0.6", "0.25"),
    ("0.51", "0.49"), ("0.99", "0.01"),
]

ERRORS = [
    "subsystem --a 0.75 --m 13 --check slices --depth 99 --seed 1",
    "subsystem --a 0.75 --m 13 --check slices --depth -1 --seed 1",
    "subsystem --a 0.75 --m 13 --check slices --samples -1 --seed 1",
    "subsystem --a 0.75 --m 13 --check convolution --samples -1 --seed 1",
    "subsystem --a 0.75 --m 13 --check convolution --samples 1000000000000 --seed 1",
    "boxdim --a 0.75 --mode grid --min-depth 6 --max-depth 99",
    "boxdim --a 0.75 --mode column --min-depth 6 --max-depth 99",
    "boxdim --a 0.75 --mode grid --min-depth -1 --max-depth 99",
    "levelset-scan --a 0.75 --samples 5 --depth 99 --seed 1",
    "subsystem --a inf --m 2 --k 2 --check gamma",
    "subsystem --a nan --m 2 --k 2 --check gamma",
    "lq --a 0.75 --q nan",
    "lq --a 0.75 --q nan --format csv",
    "lq --a 0.75 --q inf --format csv",
    "dims --a 0.75 --q nan --format csv",
    "lq --a 0.75 --q ,",
    "dims --a 0.75 --q 2 --format csv",
    "measure --a 0.75 --samples 0 --seed 1",
    "measure --a 0.75 --samples -1 --seed 1",
    "measure --a 0.75 --samples 10 --depth -1 --seed 1",
    "levelset-scan --a 0.75 --samples 0 --seed 1",
    "levelset-scan --a 0.75 --samples -1 --seed 1",
    "subsystem --a 0.75 --m 13 --check convolution --samples 0 --seed 1",
    "subsystem --a 0.75 --m 13 --check slices --samples 0 --seed 1",
    # rationals in (1/2, 1) whose floats round to 1/2 and to 1: float paths reject them
    f"dims --a {10**400}/{2 * 10**400 - 1}",
    f"measure --a {10**400 - 1}/{10**400} --samples 10 --seed 1",
]

# more checks made before any work: a decimal --b, too few boxdim depths, exact results too long to print
LATE_ERRORS = [
    "separation --b 0.5",
    "boxdim --a 0.75 --mode grid --min-depth 13 --max-depth 14",
    f"subsystem --a {10**400 - 1}/{10**400} --m 4 --k 3 --check gamma",
    f"separation --b 1/{10**1000} --max-depth 6",
]

# the level-statistics depth rule's edges: swept depths 1 and 12, covered depth 13
SWEEP_EDGES = [
    f"levelset-scan --a {a} --samples 20 --depth {n} --seed 7" for a in ("0.55", "0.95") for n in (1, 12, 13)
]
SWEEP_EDGES += [
    "levelset-scan --a 0.95 --samples 20 --depth 12 --format csv --seed 8",
    "subsystem --a 0.75 --m 6 --check slices --samples 20 --depth 12 --seed 3",
]

# depths past the sweep, split into a prefix cover and the sorted depth-12 level
SPLIT_EDGES = [
    f"levelset-scan --a {a} --samples 20 --depth {n} --seed 7"
    for a, depths in (("0.55", (13, 14, 16)), ("0.75", (13, 14, 16)), ("0.95", (13, 14)))
    for n in depths
]
SPLIT_EDGES += [
    "levelset-scan --a 0.75 --samples 20 --depth 14 --format csv --seed 8",
    "subsystem --a 0.75 --m 6 --check slices --samples 20 --depth 14 --seed 3",
    "subsystem --a 0.75 --m 6 --check slices --samples 20 --depth 16 --seed 3",
]

# depths whose per-level covers would hold up to (4a-1)^24 words: reached only through the split
NEW_REACH = [
    "levelset-scan --a 0.75 --samples 20 --depth 24 --seed 7",
    "levelset-scan --a 0.95 --samples 5 --depth 24 --seed 7",
    "subsystem --a 0.75 --m 6 --check slices --samples 20 --depth 24 --seed 3",
]

# subsystem samplers whose alias tables hold more than 2^14 entries: 28 160 words at m = 11, 112 640 at m = 12
WIDE_TABLES = [
    "subsystem --a 0.75 --m 11 --k 2 --check convolution --samples 20000 --seed 5",
    "subsystem --a 0.75 --m 12 --check slices --samples 20 --depth 10 --seed 5",
]

# both ends of the suffix-depth rule: 25 000 levels at depth 13 sort a depth-12 suffix level in
# two chunks of prefix covers, and a few levels at depths 16-20 sort one of depth 4-10
RULE_EDGES = [
    "levelset-scan --a 0.95 --samples 25000 --depth 13 --format csv --seed 9",
    "levelset-scan --a 0.55 --samples 3 --depth 20 --format csv --seed 7",
    "levelset-scan --a 0.75 --samples 3 --depth 16 --format csv --seed 7",
    "levelset-scan --a 0.95 --samples 3 --depth 18 --format csv --seed 7",
    "subsystem --a 0.6 --m 6 --check slices --samples 5 --depth 18 --seed 3",
]

# a negative seed is a usage error raised while parsing, before the m = 15 alphabet is built
NEGATIVE_SEEDS = [
    "levelset-scan --a 0.75 --samples 5 --seed -1",
    "measure --a 0.75 --samples 10 --seed -1",
    "fourier --a 0.75 --samples 10 --seed -1",
    "subsystem --a 0.75 --m 15 --check convolution --seed -1",
    "subsystem --a 0.75 --m 15 --check slices --seed -1",
    "bundle --a 0.75 --seed -1",
]

# formats no command above prints: dims and lq as CSV, the Fourier columns, the entropy check, a count
# above 2^63 (11837534970754725699 boxes at depth 20) and a CSV written through --out
FORMATS = [
    "dims --a 0.75 --format csv",
    "dims --a 3/4 --format csv",
    "lq --a 0.75 --q 1.5,2,4,8",
    "lq --a 0.75 --q 1.5,2,4,8 --format csv",
    "fourier --a 0.75 --samples 20000 --seed 3 --format csv",
    "fourier --a 0.75 --samples 20000 --seed 3 --tcount 1 --format csv",
    "subsystem --a 0.75 --m 6 --k 3 --check entropy",
    "boxdim --a 999/1000 --mode column --min-depth 18 --max-depth 20 --format csv",
    "measure --a 0.75 --samples 1000 --seed 1 --format csv --out measure.csv",
]

# subsystem inputs past a cap, each a BudgetError before the subsystem is built: sampling depths of lambda near 1
# (1 577 146 at a = 0.99999, m = 2; the next one ran past 20 s before the cap), 1e8 draws of depth 78, and the
# 7 454 720 words of m = 16 at a = 0.75 against the alphabet's cap of 2^20
CAPS = [
    "subsystem --a 0.99999 --m 2 --check convolution --samples 10 --seed 1",
    "subsystem --a 0.9999999 --m 2 --check convolution --samples 10 --seed 1",
    "subsystem --a 0.9999999999999999 --m 1 --check convolution --samples 10 --seed 1",
    "subsystem --a 0.9999999999999999 --m 1 --check slices --samples 10 --seed 1",
    "subsystem --a 0.75 --m 1 --k 2 --check convolution --samples 100000000 --seed 1",
    "subsystem --a 0.75 --m 16 --check ratio",
    "subsystem --a 0.75 --m 16 --check convolution --samples 10 --seed 1",
    "subsystem --a 0.75 --m 16 --check slices --samples 10 --seed 1",
]

# 7 of the 30 frequencies of 1000 samples pass the bins capped at the count; the depth-5 and depth-6 gaps of
# b = 10^-80 lie below the float range
LATE_BRANCHES = [
    "fourier --a 0.75 --samples 1000 --seed 1",
    "fourier --a 0.75 --samples 1000 --seed 1 --format csv",
    f"separation --b 1/{10**80} --max-depth 6",
    f"separation --b 1/{10**80} --max-depth 6 --format csv",
]


def commands() -> list:
    out = list(WORKLOAD_COMMANDS)
    for a, y in LEVELS:
        for depth in (1, 6, 11):
            out.append(f"levelset --a {a} --y {y} --depth {depth}")
            out.append(f"levelset --a {a} --y {y} --depth {depth} --format csv")
    for a in ("0.51", "0.75", "0.99"):
        out += [f"graph --a {a} --depth {n}" for n in (0, 3, 7, 10)]
        out.append(f"boxdim --a {a} --mode grid --min-depth 0 --max-depth 11")
        out.append(f"boxdim --a {a} --mode grid --min-depth 6 --max-depth 9 --format csv")
    for b in ("1/3", "1/2", "2/5", "3/5", "7/11"):
        out.append(f"separation --b {b} --max-depth 10")
        out.append(f"separation --b {b} --max-depth 9 --format csv")
    out += [f"separation --b {b} --max-depth 4" for b in ("1/3", "1/2", "3/5")]  # the zero-gap witnesses
    out.append("levelset-scan --a 0.75 --samples 20 --depth 10 --seed 3")
    out.append("subsystem --a 0.75 --m 6 --check slices --samples 20 --depth 10 --seed 3")
    for m in (1, 6, 8, 10):
        out.append(f"subsystem --a 0.75 --m {m} --check ratio")
        out.append(f"subsystem --a 3/4 --m {m} --check ratio")
        out.append(f"subsystem --a 3/4 --m {m} --k 2 --check gamma")
        out.append(f"subsystem --a 2/3 --m {m} --k 3 --check gamma")
        out.append(f"subsystem --a 0.75 --m {m} --k 2 --check convolution --samples 20000 --seed 5")
        out.append(f"subsystem --a 0.6 --m {m} --check slices --samples 20 --depth 10 --seed 5")
    out.append("subsystem --a 3/4 --m 13 --check ratio")
    out.append("subsystem --a 999/1000 --m 4 --k 2 --check gamma")  # gamma past the int64 bound
    out += ERRORS
    out.append("levelset --a 3/4 --y 1/3 --depth 11 --out levelset.json")
    out.append("levelset --a 0.75 --y 0.3 --depth 11 --format csv --out levelset.csv")
    out.append("graph --a 0.75 --depth 6 --out graph.csv")
    out.append("levelset-scan --a 0.75 --samples 20 --depth 10 --seed 4 --out scan.json")
    out += LATE_ERRORS  # after the rest, so earlier outputs keep their numbers
    out += SWEEP_EDGES  # likewise after the late errors
    out += SPLIT_EDGES
    out += NEW_REACH  # the split is the only path that reaches them
    out += WIDE_TABLES
    out += RULE_EDGES
    out += NEGATIVE_SEEDS
    out += FORMATS
    out += CAPS
    out += LATE_BRANCHES  # last
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="output directory (created if missing)")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    os.chdir(args.out)
    cmds = commands()
    codes = []
    for i, cmd in enumerate(cmds):
        buf = io.StringIO()
        try:
            codes.append(run(cmd.split(), stdout=buf))
        except Exception as exc:  # an error that escapes cli.run is an output too
            buf.write(f"escaped cli.run: {type(exc).__name__}: {exc}\n")
            codes.append("escaped")
        with open(f"{i:03d}.out", "w") as fh:
            fh.write(buf.getvalue())
    with open("commands.txt", "w") as fh:
        fh.write("\n".join(cmds) + "\n")
    with open("exit_codes.txt", "w") as fh:
        fh.write("\n".join(map(str, codes)) + "\n")
    print(f"{len(cmds)} commands -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

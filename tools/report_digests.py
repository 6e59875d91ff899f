"""Print the sha256 of the standard ``--out`` reports of this source tree.

    python3 tools/report_digests.py

The package is imported from the ``src/`` directory next to this script,
never from an installed copy, and every report is written to a temporary
directory. Each line reads ``<sha256>  <report>  exit <code>``, with ``-``
for a report that was not written. Run it in two checkouts on one host and
compare the outputs line by line: the digests depend on numpy's build and
CPU dispatch, so no list of expected digests is kept.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

PROFILE = ("--q", "4", "--D", "1", "--sigma", "1", "--cq", "1")
CAMPAIGN = ("--n", "50", "--trials", "20000", "--q", "4", "--u", "0.5,0.1,0.01,0.001",
            "--seed", "7")
LAWS = {  # --dist: its parameter and space
    "pareto": ("--alpha", "4.5", "--dim", "5"),
    "student_t": ("--alpha", "5", "--p", "3", "--dim", "4"),
    "rademacher": ("--alpha", "1", "--dim", "3"),
    "uniform_cube": ("--alpha", "0.5", "--p", "3", "--dim", "16"),
    "gaussian": ("--alpha", "1.5", "--p", "3", "--dim", "16"),
}
RUNS = {
    **{f"verify-{law}": ("verify", "--dist", law, *space, *CAMPAIGN)
       for law, space in LAWS.items()},
    "bound-u": ("bound", *PROFILE, "--u", "0.1"),
    "bound-t": ("bound", *PROFILE, "--t", "10"),
    "mcdiarmid": ("mcdiarmid", *PROFILE, "--u", "0.1"),
    "proofcheck": ("proofcheck", "--q", "4", "--D", "1", "--sigma", "1", "--u", "0.1"),
    "quantile": ("quantile", "sample.txt", "--u", "0.1,0.001"),
}
SAMPLE_SIZE = 20_000


def write_sample(path):
    """A Pareto(3) sample of SAMPLE_SIZE values, one repr a line."""
    values = np.random.default_rng(0).pareto(3.0, SAMPLE_SIZE)
    path.write_text("\n".join(map(repr, values.tolist())) + "\n", encoding="utf-8")


def digest(cli, argv, fmt, out):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run([*argv, "--format", fmt, "--out", str(out)])
    text = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
    return text, code


def main():
    sys.path.insert(0, str(SRC))
    from fuknagaev import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"report_digests: imported fuknagaev from {cli.__file__}, not from {SRC}")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        # the quantile report holds the sample file's name as given: a relative one
        os.chdir(work)
        write_sample(work / "sample.txt")
        for name, argv in RUNS.items():
            for fmt in ("json", "csv"):
                text, code = digest(cli, argv, fmt, work / f"{name}.{fmt}")
                print(f"{text}  {name}.{fmt}  exit {code}", flush=True)


if __name__ == "__main__":
    main()

"""Recorded stdout and exit code of a fixed set of CLI invocations.

`cli_golden.json` holds, for each invocation, its argv, the multiset
written to `{input}` for `classify`, the exit code and the exact stdout.
The test runs each one in-process and compares the bytes, so any change
to what the CLI prints fails here.  To record the file again from the
code on the path, run `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import json
import os
import subprocess
import sys

import pytest

from symci.cli import main

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "cli_golden.json")
GENS_DIR = os.path.join(HERE, os.pardir, "gens")


def _multiset(n, *summands):
    return {"n": n, "summands": [{"partition": lam, "degree": d} for lam, d in summands]}


ACCEPTED = _multiset(4, ([3, 1], 2), ([4], 2))
REJECTED = _multiset(5, ([4, 1], 2), ([4, 1], 3))
DEGENERATE = _multiset(3, ([2, 1], 2), ([3], 3))

INVOCATIONS = [
    (["examples"], None),
    (["examples", "--json"], None),
    *[(["tables", "--n", str(n)] + fmt, None) for n in (4, 5, 6) for fmt in ([], ["--json"])],
    *[
        (["character"] + flags + fmt, None)
        for flags in (
            ["--n", "4", "--case", "IV", "--d", "2", "--c", "2,3"],
            ["--n", "4", "--case", "II", "--d", "6", "--c", "2,2,3"],
            ["--n", "5", "--case", "III", "--d", "2", "--bound", "6"],
            ["--n", "5", "--case", "II", "--d", "3", "--c", "1,2,3,4"],
        )
        for fmt in ([], ["--json"])
    ],
    *[
        (["verify", "--gens", f"{{gens}}/{name}.gens", "--against", against] + fmt, None)
        for name, against in (("ex5", "case IV d=2 c=2,3"), ("ex4", "case III d=2 c=3"))
        for fmt in ([], ["--json"])
    ],
    *[
        (["classify", "--input", "{input}"] + fmt, body)
        for body in (ACCEPTED, REJECTED, DEGENERATE)
        for fmt in ([], ["--json"])
    ],
    *[
        (["verify", "--gens", f"{{gens}}/{name}.gens", "--against", against] + fmt, None)
        for name, against in (("ex2", "case I c=2,3,3,4"), ("ex3", "case II d=6 c=2,2,3"))
        for fmt in ([], ["--json"])
    ],
    *[
        (["verify", "--gens", f"{{gens}}/{name}.gens", "--n", "6", "--against", against]
         + ["--json"], None)
        for name, against in (
            ("coinv6", "case I c=1,2,3,4,5,6"),
            ("psum6", "case I c=1,2,3,4,5,6"),
            ("e6sq6", "case I c=1,2,3,4,5,12"),
        )
    ],
    # fewer generators than variables: the quotient is not artinian
    *[
        (["verify", "--gens", f"{{gens}}/{name}.gens", "--n", n, "--against", against]
         + ["--bound", bound] + fmt, None)
        for name, n, against, bound in (
            ("trunc4", "4", "case I c=1,2", "12"),
            ("trunc5", "5", "case I c=2,3,8", "14"),
        )
        for fmt in ([], ["--json"])
    ],
]


def _argv(argv, input_path):
    return [a.replace("{gens}", GENS_DIR).replace("{input}", str(input_path)) for a in argv]


def _load():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_invocation_is_recorded():
    assert [[r["argv"], r["input"]] for r in _load()] == [list(i) for i in INVOCATIONS]


@pytest.mark.parametrize(
    "index", range(len(INVOCATIONS)), ids=lambda i: f"{i}:" + " ".join(INVOCATIONS[i][0])
)
def test_output_is_byte_identical(index, tmp_path, capsys):
    record = _load()[index]
    path = tmp_path / "ms.json"
    if record["input"] is not None:
        path.write_text(json.dumps(record["input"]))
    code = main(_argv(record["argv"], path))
    assert code == record["code"]
    assert capsys.readouterr().out == record["stdout"]


if __name__ == "__main__":
    records = []
    for argv, body in INVOCATIONS:
        path = os.path.join(os.path.dirname(GOLDEN), ".golden_input.json")
        if body is not None:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(body, handle)
        proc = subprocess.run(
            [sys.executable, "-m", "symci.cli", *_argv(argv, path)], capture_output=True
        )
        stdout = proc.stdout.decode("utf-8")
        records.append({"argv": argv, "input": body, "code": proc.returncode, "stdout": stdout})
    if os.path.exists(path):
        os.remove(path)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(records, handle, ensure_ascii=False, indent=1)
        handle.write("\n")

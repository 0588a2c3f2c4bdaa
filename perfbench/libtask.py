"""One library task of the ``library-session`` workload.

Run as ``python perfbench/libtask.py SPEC.json`` (with ``src`` on
``PYTHONPATH``) for one fresh process per task, or call :func:`run` in
process for the traced run. The task prints a short digest of every result,
which the benchmark compares with the value its reference code expects.
Library names are looked up on the package at call time, so the tracer's
wrappers are seen.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from pathlib import Path

import prefixnormal as pn


def digest(data) -> str:
    return hashlib.sha256(str(data).encode("ascii")).hexdigest()[:16]


def lex(spec: dict) -> str:
    word = pn.FiniteWord(Path(spec["word"]).read_text().strip())
    lines = [f"{n} {digest(pn.max_word(word, n))} {digest(pn.min_word(word, n))}" for n in spec["lengths"]]
    lines.append(f"prenecklace {pn.is_prenecklace_prefix(word)}")
    return "\n".join(lines) + "\n"


def index(spec: dict) -> str:
    blob = Path(spec["index"]).read_bytes()
    ix = pn.deserialize(blob)
    pairs = array("i")
    pairs.frombytes(Path(spec["queries"]).read_bytes())
    answers = bytearray(len(pairs) // 2)
    query = ix.query
    for i, (zeros, ones) in enumerate(zip(pairs[0::2], pairs[1::2])):
        if query(zeros, ones):
            answers[i] = 1
    same = True
    for _ in range(spec["roundtrips"]):
        again = pn.serialize(ix)
        same = same and again == blob and pn.deserialize(again) == ix
    return f"hits {sum(answers)}\nanswers {hashlib.sha256(answers).hexdigest()[:16]}\nroundtrip {same}\n"


def balance(spec: dict) -> str:
    sturmian = pn.characteristic_word(pn.SlopeSpec.parse(spec["slope"]), spec["length"])
    word = pn.FiniteWord(Path(spec["word"]).read_text().strip())
    verdicts = [pn.is_c_balanced(sturmian, 1)] + [pn.is_c_balanced(word, c) for c in spec["checks"]]
    return f"sturmian {digest(sturmian)}\nbalanced {' '.join(map(str, verdicts))}\n"


def density(spec: dict) -> str:
    periodic = pn.UltimatelyPeriodicWord(pn.FiniteWord(spec["preperiod"]), pn.FiniteWord(spec["period"]))
    delta = pn.min_density_up(periodic)
    return f"min_density_up {delta.numerator}/{delta.denominator}\n"


TASKS = {"lex": lex, "index": index, "balance": balance, "density": density}


def run(spec: dict) -> str:
    return TASKS[spec["task"]](spec)


if __name__ == "__main__":
    sys.stdout.write(run(json.loads(Path(sys.argv[1]).read_text())))

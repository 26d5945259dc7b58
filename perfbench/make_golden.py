"""Record the golden answers in ``golden.json`` from the current package.

Run once, from the repository root, at a commit whose answers are trusted:

    python3 perfbench/make_golden.py

It records the answers that have no independent closed form: counts of
start-small avoiders by key mid-123 count, counts for the generic
three-pattern set, and digests of the ``enumerate`` listings.  The per-k
counts must sum to the number of start-small avoiders, A164651(n) -
A164651(n-1), which the script checks before writing.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import GENERIC, PAIR, load_references, run_cli  # noqa: E402

from avoiders import cli  # noqa: E402


def answer(argv: list[str]) -> str:
    code, text = run_cli(cli.main, argv)
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    return text


def main() -> None:
    a164651 = load_references(ROOT).a164651
    golden = {"start_small_k": {}, "generic": {GENERIC: {}}, "enumerate_sha256": {}}
    for n in (8, 9):
        by_k = {
            str(k): int(answer(["count", "--n", str(n), "--patterns", PAIR,
                                "--start-small", "--k", str(k)]))
            for k in range(n - 1)
        }
        if sum(by_k.values()) != a164651[n] - a164651[n - 1]:
            raise SystemExit(f"per-k counts at n={n} miss the start-small total")
        golden["start_small_k"][str(n)] = by_k
    for n in (7, 8):
        golden["generic"][GENERIC][str(n)] = int(
            answer(["count", "--n", str(n), "--patterns", GENERIC]))
        listing = answer(["enumerate", "--n", str(n), "--patterns", PAIR])
        golden["enumerate_sha256"][str(n)] = hashlib.sha256(listing.encode()).hexdigest()
    (HERE / "golden.json").write_text(json.dumps(golden, indent=2) + "\n")


if __name__ == "__main__":
    main()

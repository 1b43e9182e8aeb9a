"""Recompute the golden digests and report how they differ from the committed ones.

Builds the pinned dataset (see ``tests/test_golden_digests.py``) on the
serial simulated path, digests it and its ``--json`` reports, and prints one
QA-style line per artifact: ``ok`` when the digest is unchanged, ``CHANGED``
with the old and new digest otherwise.  Exits 1 when anything changed,
unless ``--write`` is given, which stores the new digests instead.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py [--write]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden_digests import (  # noqa: E402
    GOLDEN_CONFIG,
    GOLDEN_PATH,
    build_dataset,
    report_digests,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="store the recomputed digests in digests.json")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "golden.jsonl"
        build_dataset(GOLDEN_CONFIG, path)
        current = report_digests(path)
    committed = {}
    if GOLDEN_PATH.exists():
        committed = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["digests"]

    changed = 0
    for name in sorted(set(current) | set(committed)):
        old, new = committed.get(name), current.get(name)
        if old == new:
            print(f"  ok       {name:<15} {new}")
        else:
            changed += 1
            print(f"  CHANGED  {name:<15} {old or '(none)'} -> {new or '(none)'}")
    print(f"{len(current)} artifacts, {changed} changed")

    if args.write:
        config = GOLDEN_CONFIG
        payload = {
            "meta": {
                "schema": 1,
                "config": {"countries": list(config.countries),
                           "sites_per_country": config.sites_per_country,
                           "seed": config.seed},
            },
            "digests": current,
        }
        GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())

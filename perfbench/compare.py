"""Compare two benchmark records written by run.py.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric of both records with the change as a share of BEFORE,
and whether the output digests agree. Refuses (exit 2) to compare records
of different workloads, sizes or seeds, or made with different kernel
backends, Python or numpy versions: numbers from two backends say nothing
about one change, and the speed scale's reference loop (run.py) runs on
Python and numpy, so a new version of either moves every scaled time.
"""

from __future__ import annotations

import json
import sys


def compare(before: dict, after: dict) -> list:
    """Lines of the comparison; raises ValueError when the records are not comparable."""
    for key in ("workload", "size", "seed", "trace"):
        if before[key] != after[key]:
            raise ValueError(f"{key} differs: {before[key]!r} vs {after[key]!r}")
    b_env, a_env = before["environment"], after["environment"]
    for key, what in (("backend", "kernel backends"), ("python", "Python versions"),
                      ("numpy", "numpy versions")):
        if b_env[key] != a_env[key]:
            raise ValueError(f"{what} differ: {b_env[key]!r} vs {a_env[key]!r}")
    lines = [
        f"{before['workload']} seed={before['seed']} backend={b_env['backend']} "
        f"commits {b_env['commit']} -> {a_env['commit']}",
        "digests " + ("agree" if before["digest"] == after["digest"] else
                      f"DIFFER: {before['digest'][:16]} vs {after['digest'][:16]}"),
        f"failed {before['failed']}/{before['attempted']} -> {after['failed']}/{after['attempted']}",
    ]
    for name, b in before["metrics"].items():
        a = after["metrics"].get(name)
        if a is None:
            lines.append(f"  {name}: {b:.6g} -> missing")
            continue
        change = f"{(a - b) / b:+.1%}" if b else "n/a"
        lines.append(f"  {name}: {b:.6g} -> {a:.6g} ({change})")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    records = []
    for path in args:
        with open(path) as fh:
            records.append(json.load(fh))
    try:
        lines = compare(*records)
    except ValueError as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

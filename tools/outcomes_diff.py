"""Summarise how two ``tools/outcomes.py`` listings differ:

    python tools/outcomes_diff.py PARENT.txt CHANGE.txt

The listings must hold the same calls in the same order.  The tool prints
each listing's header line (numpy's version and SIMD targets), or that it
has none, as a listing of an older ``tools/outcomes.py`` does; the header
is not an outcome and is left out of the counts.  Then it prints the
changed outcomes per route (a route line's method; ``factor``,
``integrand_direct``, the ``integrate_staged`` batch name, ``cli`` or
``fuzz`` for the others) with the range of d of the changed route lines;
the largest |change of value| as a multiple of the parent's estimate and
where it is; the range of the estimate ratios change/parent; and every
outcome whose kind changed: a value that became an error, an error that
became a value or an error of another type.  It exits 1 if the listings
hold different calls, else 0.
"""

from __future__ import annotations

import sys
from collections import defaultdict


def outcomes(path: str) -> tuple:
    """The header line of the listing at ``path`` (None where it has none)
    and the (call, outcome) of each of its outcomes; a command-line outcome
    runs from its ``cli`` line to the next ``cli`` or ``fuzz`` line."""
    found = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines.pop(0) if lines and lines[0].startswith("numpy ") else None
    for line in lines:
        if found and found[-1][0].startswith("cli ") and not line.startswith(("cli ", "fuzz ")):
            found[-1][1].append(line)
        else:
            call, _, out = line.partition(": ")
            found.append((call, [out]))
    return header, [(call, "\n".join(out)) for call, out in found]


def route(call: str) -> tuple:
    """The group of ``call`` and its d, or None where it has no plain d."""
    words = call.split()
    if call.startswith("("):
        d = words[0].strip("(,")
        return words[2], int(d) if d.isdigit() else None
    return words[0], None


def floats(call: str, out: str):
    """The value and the estimate of a value outcome, or None for an error.
    Only route, ``fuzz logdet`` and batch row lines carry an estimate, as
    their second word; it is None for the others."""
    words = out.split()
    try:
        value = float.fromhex(words[0])
    except (IndexError, ValueError):
        return None
    has_estimate = call.startswith(("(", "fuzz logdet(")) or " row " in call
    return value, float.fromhex(words[1]) if has_estimate else None


def kind(call: str, out: str) -> str:
    """"value", or the error type that opens an error outcome."""
    return "value" if floats(call, out) is not None else out.split(":")[0]


def main(argv=None) -> int:
    parent_path, change_path = (argv if argv is not None else sys.argv[1:])
    (parent_header, parent), (change_header, change) = map(outcomes, (parent_path, change_path))
    print(f"parent: {parent_header or 'no header line'}")
    print(f"change: {change_header or 'no header line'}")
    if [c for c, _ in parent] != [c for c, _ in change]:
        print("the listings hold different calls")
        return 1
    changed = defaultdict(list)
    worst, ratios, kinds = (0.0, None), [], []
    for (call, old), (_, new) in zip(parent, change):
        if old == new:
            continue
        group, d = route(call)
        changed[group].append(d)
        if kind(call, old) != kind(call, new):
            kinds.append(f"{call}: {old} -> {new}")
            continue
        was, now = floats(call, old), floats(call, new)
        if was is None or not was[1]:  # no estimate, or one of 0
            continue
        ratios.append(now[1] / was[1])
        moved = abs(now[0] - was[0]) / was[1]
        if moved > worst[0]:
            worst = (moved, call)
    print(f"{sum(map(len, changed.values()))} of {len(parent)} outcomes changed")
    for group, ds in changed.items():
        known = [d for d in ds if d is not None]
        span = f", d {min(known)}..{max(known)}" if known else ""
        print(f"  {group}: {len(ds)}{span}")
    if worst[1] is not None:
        print(f"largest |value change| / parent estimate: {worst[0]:.3g} at {worst[1]}")
    if ratios:
        print(f"estimate ratio change/parent: {min(ratios):.6f} .. {max(ratios):.6f}")
    print(f"outcomes whose kind changed: {len(kinds)}")
    for line in kinds:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

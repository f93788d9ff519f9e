#!/usr/bin/env python3
"""Compare two runs of calibration_traffic.py or ers_traffic.py, line by line.

    python scripts/traffic_diff.py OLD.jsonl NEW.jsonl [--max-rel TOL]

Lines are paired by their label fields (strip, convention and model, or
preset, seed, model and rho).  The script prints the labels found in one
run only, then each pair whose `error` or `warnings` differ, the fields
of a pair found in one line only, and each bool, text or null entry that
differs between the lines of a pair (a number turned into null or text
included).  Then, for each numeric field, it prints the largest absolute
and the largest relative change over all pairs, with the pair where each
occurs.  A field is a path into the line, such as
`diagnostics.step1.objective_bp2`; the entries of a list share one field,
such as `parameters.sigmas[]`.  The relative change is |new - old| / |old|,
and inf where old is 0 and new is not.

Where both lines of a pair hold `result.fair_spread_bp` and
`result.std_error_bp`, as the ERS traffic's do, the script also prints the
largest change of the spread in joint standard errors,
|X_new - X_old| / sqrt(SE_old^2 + SE_new^2), with the pair where it occurs,
and how many pairs move by more than 2.  That is the scale on which two
independent Monte Carlo draws of one cell should agree; a cell whose spread
did not move reads 0, and one that moved with no standard error inf.

The exit code is 0.  With --max-rel TOL it is 1 when a label is in one run
only, an `error` or `warnings` differs, a field is in one line of a pair
only, a list field changes length, a bool, text or null entry differs, or
a number's relative change exceeds TOL.
"""

import argparse
import json
import math
import sys

LABELS = ("strip", "preset", "seed", "convention", "model", "rho")


def read_run(path) -> dict:
    with open(path, encoding="utf-8") as f:
        lines = [json.loads(text) for text in f if text.strip()]
    return {tuple((k, line[k]) for k in LABELS if k in line): line for line in lines}


def leaves(value, path=""):
    """(field, entry) for every number, bool, text or null in a line."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from leaves(item, f"{path}[]")
    else:
        yield path, value


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def label_text(label) -> str:
    return " ".join(f"{k}={v}" for k, v in label)


def compare(old: dict, new: dict) -> tuple[list[str], dict, bool]:
    """(report lines, {field: [(abs change, label), (rel change, label)]}, and
    whether a label, an error, warnings, a field's presence, a list's length
    or a bool, text or null entry differs)."""
    out = [f"only in {side}: {label_text(label)}"
           for side, ours, theirs in (("OLD", old, new), ("NEW", new, old))
           for label in ours if label not in theirs]
    largest = {}
    for label in (label for label in old if label in new):  # in file order
        a, b = old[label], new[label]
        for key in ("error", "warnings"):
            if a.get(key) != b.get(key):
                out.append(f"{key} differs at {label_text(label)}: "
                           f"{a.get(key)!r} -> {b.get(key)!r}")
        fields_a, fields_b = {}, {}
        for fields, line in ((fields_a, a), (fields_b, b)):
            for field, x in leaves({k: v for k, v in line.items()
                                    if k not in ("error", "warnings")}):
                fields.setdefault(field, []).append(x)
        for side, ours, theirs in (("OLD", fields_a, fields_b), ("NEW", fields_b, fields_a)):
            alone = sorted(ours.keys() - theirs.keys())
            if alone:
                out.append(f"only in {side} at {label_text(label)}: {', '.join(alone)}")
        for field in sorted(fields_a.keys() & fields_b.keys()):
            if len(fields_a[field]) != len(fields_b[field]):
                out.append(f"{field} changes length at {label_text(label)}")
                continue
            for x, y in zip(fields_a[field], fields_b[field]):
                if not (is_number(x) and is_number(y)):
                    if type(x) is not type(y) or x != y:
                        out.append(f"{field} differs at {label_text(label)}: {x!r} -> {y!r}")
                    continue
                x, y = float(x), float(y)
                change = abs(y - x)
                if math.isnan(change):
                    change = 0.0 if math.isnan(x) and math.isnan(y) else math.inf
                rel = change / abs(x) if x else (0.0 if change == 0.0 else math.inf)
                best = largest.setdefault(field, [(0.0, None), (0.0, None)])
                for i, c in enumerate((change, rel)):
                    if c > best[i][0]:
                        best[i] = (c, label)
    mismatched = bool(out)
    for field in sorted(largest):
        (change, at), (rel, rel_at) = largest[field]
        if change or rel:
            out.append(f"{field}: max abs {change:.3g} at {label_text(at)}; "
                       f"max rel {rel:.3g} at {label_text(rel_at)}")
    return out, largest, mismatched


def spread_and_se(line):
    """(result.fair_spread_bp, result.std_error_bp) of a line, or None
    unless both are numbers."""
    result = line.get("result")
    if not isinstance(result, dict):
        return None
    pair = result.get("fair_spread_bp"), result.get("std_error_bp")
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair):
        return pair
    return None


def joint_se_gaps(old: dict, new: dict) -> list:
    """(|X_new - X_old| / sqrt(SE_old^2 + SE_new^2), label) of each pair
    whose lines both hold a spread and its standard error, in file order."""
    gaps = []
    for label in (label for label in old if label in new):
        a, b = spread_and_se(old[label]), spread_and_se(new[label])
        if a and b:
            change, se = abs(b[0] - a[0]), math.hypot(a[1], b[1])
            gaps.append((change / se if se else (math.inf if change else 0.0), label))
    return gaps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("old", help="the JSON lines of the reference run")
    parser.add_argument("new", help="the JSON lines of the run to compare")
    parser.add_argument("--max-rel", type=float, metavar="TOL",
                        help="exit 1 on a mismatch or a relative change above TOL")
    args = parser.parse_args(argv)
    old, new = read_run(args.old), read_run(args.new)
    out, largest, mismatched = compare(old, new)
    print(f"{len(old.keys() & new.keys())} paired lines, "
          f"{sum(old[k] == new[k] for k in old.keys() & new.keys())} identical")
    print("\n".join(out) if out else "no numeric field changes")
    gaps = joint_se_gaps(old, new)
    if gaps:
        gap, at = max(gaps, key=lambda g: g[0])
        print(f"result.fair_spread_bp in joint SE: max {gap:.3g} at {label_text(at)}; "
              f"{sum(g > 2.0 for g, _ in gaps)} of {len(gaps)} pairs above 2")
    if args.max_rel is None:
        return 0
    over = sorted(field for field, (_, (rel, _)) in largest.items() if not rel <= args.max_rel)
    if over:
        print(f"relative change above {args.max_rel:g}: {', '.join(over)}")
    return 1 if mismatched or over else 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks on the files one workload pass writes.

Each check returns a list of failure messages; an empty list means the pass
is correct. Checks that hold at every seed come from the paper and from the
model (acceptance bounds on the fitted orders, zero blow-ups for tamed
schemes, mean-square contraction below h*). Values recorded at the default
seed pin the exact numbers: blow-up tallies must match exactly and RMS and
mean-square values within ``RTOL``.
"""

from __future__ import annotations

import math
import re

import recorded
import workloads

# Relative tolerance on recorded RMS and mean-square values. Tight enough to
# catch any change of algorithm, loose enough for a reordered floating-point
# reduction (which moves the last few bits).
RTOL = 1e-9

_FIT_RE = re.compile(r"scheme=(\S+) C=(\S+) r=(\S+) residual=(\S+)")


def _close(value: float, want: float) -> bool:
    return math.isclose(value, want, rel_tol=RTOL, abs_tol=0.0)


def check_converge(doc: dict, csv_text: str, fit_text: str, size: str) -> list[str]:
    problems = []
    stepsizes = sorted(doc["stepsizes"], reverse=True)
    lines = csv_text.splitlines()
    if not lines or lines[0] != "scheme,h,rms_error,stderr,excluded_paths":
        return ["convergence.csv: unexpected header"]
    rows: dict[str, list[tuple[float, float, int]]] = {}
    for line in lines[1:]:
        scheme, h, rms, _stderr, excluded = line.split(",")
        rows.setdefault(scheme, []).append((float(h), float(rms), int(excluded)))
    if sorted(rows) != sorted(doc["schemes"]):
        return [f"convergence.csv: schemes {sorted(rows)} != {sorted(doc['schemes'])}"]
    for scheme, table in rows.items():
        if [h for h, _, _ in table] != stepsizes:
            problems.append(f"{scheme}: stepsizes {[h for h, _, _ in table]} != {stepsizes}")
            continue
        excluded = [e for _, _, e in table]
        if any(excluded):
            # semi-tamed steps cannot overflow in 2^14 steps on this model
            problems.append(f"{scheme}: excluded_paths {excluded}, expected all 0")
        rms = [r for _, r, _ in table]
        if not all(math.isfinite(r) and r > 0 for r in rms):
            problems.append(f"{scheme}: non-positive or non-finite RMS {rms}")
        elif any(b >= a for a, b in zip(rms, rms[1:])):
            problems.append(f"{scheme}: RMS does not fall with h: {rms}")
        want = recorded.CONVERGE_RMS.get(scheme) if _pinned(doc, size) else None
        if want is not None and not all(_close(r, w) for r, w in zip(rms, want)):
            problems.append(f"{scheme}: RMS {rms} differs from recorded {want}")
    fits = {m.group(1): float(m.group(3)) for m in _FIT_RE.finditer(fit_text)}
    for scheme, (low, high) in workloads.ORDER_BOUNDS.items():
        if scheme not in fits:
            problems.append(f"fit.txt: no fit line for {scheme}")
        elif not low <= fits[scheme] <= high:
            problems.append(f"{scheme}: fitted order {fits[scheme]} outside [{low}, {high}]")
    return problems


def check_stability(doc: dict, csv_text: str, size: str, horizon: float) -> list[str]:
    problems = []
    lines = csv_text.splitlines()
    if not lines or lines[0] != "scheme,h,t,mean_square,blown_up_count":
        return ["stability.csv: unexpected header"]
    curves: dict[tuple[str, float], list[tuple[float, float, int]]] = {}
    for line in lines[1:]:
        scheme, h, t, ms, blown = line.split(",")
        curves.setdefault((scheme, float(h)), []).append((float(t), float(ms), int(blown)))
    stepsizes = doc["stepsizes"]
    expected_keys = [(s, h) for s in doc["schemes"] for h in stepsizes]
    if list(curves) != expected_keys:
        return [f"stability.csv: curves {list(curves)} != {expected_keys}"]
    pinned = _pinned(doc, size)
    for (scheme, h), rows in curves.items():
        label = f"{scheme} h={h}"
        steps = workloads.grid_steps(horizon, h)
        if len(rows) != steps + 1:
            problems.append(f"{label}: {len(rows)} rows, expected {steps + 1}")
            continue
        if rows[0] != (0.0, 1.0, 0):
            problems.append(f"{label}: first row {rows[0]} != (0.0, 1.0, 0)")
        if any(not math.isclose(t, n * h, rel_tol=1e-12) for n, (t, _, _) in enumerate(rows)):
            problems.append(f"{label}: times are not the grid n*h")
        # the CSV never holds NaN; only em can overflow a surviving path's square
        allowed = (lambda ms: ms >= 0) if scheme == "em" else (lambda ms: 0 <= ms < math.inf)
        if not all(allowed(ms) for _, ms, _ in rows):
            problems.append(f"{label}: NaN, negative or (tamed scheme) infinite mean square")
        blown = [b for _, _, b in rows]
        if any(b < a for a, b in zip(blown, blown[1:])):
            problems.append(f"{label}: blow-up tally decreases over time")
        if scheme != "em" and blown[-1] != 0:
            problems.append(f"{label}: {blown[-1]} blow-ups, a tamed scheme must have 0")
        if scheme == "semi-tamed-milstein" and h < workloads.H_STAR and not rows[-1][1] < 1.0:
            problems.append(f"{label}: mean square {rows[-1][1]} did not contract below h*")
        if pinned:
            want_blown = recorded.STABILITY_BLOWN[scheme][stepsizes.index(h)]
            if blown[-1] != want_blown:
                problems.append(f"{label}: {blown[-1]} blow-ups, recorded {want_blown}")
            for t, want in recorded.STABILITY_MEAN_SQUARE[scheme][stepsizes.index(h)]:
                got = rows[workloads.grid_steps(t, h)][1]
                if not _close(got, want):
                    problems.append(f"{label}: mean square {got} at t={t}, recorded {want}")
    em = [curves[("em", h)][-1][2] for h in sorted(stepsizes, reverse=True)]
    if any(b > a for a, b in zip(em, em[1:])):
        problems.append(f"em: blow-ups {em} grow as h shrinks")
    return problems


def _pinned(doc: dict, size: str) -> bool:
    """Recorded values exist for the full-size configs at the default seed."""
    return size == "full" and doc["seed"] == workloads.DEFAULT_SEED

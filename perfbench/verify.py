"""Check sweep cells against a committed reference CSV: no worse than the reference.

A cell fails when it raised, when its row is missing or its (M, p) changed,
when linf_error or max_imag is worse than the reference beyond tolerance, or
when cond2 rose beyond tolerance on a reference row that is below the
saturation level 1/(M*eps) (above it cond2 is roundoff noise).  Being better
than the reference is never a failure.
"""

import csv
import math

EPS = 2.220446049250313e-16

# linf_error: at most twice the reference plus an absolute floor of a few
# hundred ulps of the O(1) boundary data, where roundoff sets the error.
ERROR_RTOL, ERROR_ATOL = 1.0, 1e-13
# max_imag is a pure roundoff residue: only an order-of-magnitude rise counts.
IMAG_RTOL, IMAG_ATOL = 9.0, 1e-12
# cond2 below saturation is a stable measurement: a 25% rise counts.
COND_RTOL = 0.25


def load_reference(path):
    """Reference rows keyed by (method, N), values parsed to int/float."""
    with open(path, newline="") as fh:
        return {
            (r["method"], int(r["N"])): {
                "M": int(r["M"]),
                "p": int(r["p"]),
                "cond2": float(r["cond2"]),
                "linf_error": float(r["linf_error"]),
                "max_imag": float(r["max_imag"]),
            }
            for r in csv.DictReader(fh)
        }


def _worse(value, ref, rtol, atol):
    return not value <= ref * (1.0 + rtol) + atol    # NaN is worse


def check_row(ref, row):
    """Reason the row fails against its reference row, or None."""
    if ref is None:
        return "no reference row"
    if (row["M"], row["p"]) != (ref["M"], ref["p"]):
        return f"(M, p) changed from {(ref['M'], ref['p'])} to {(row['M'], row['p'])}"
    if _worse(row["linf_error"], ref["linf_error"], ERROR_RTOL, ERROR_ATOL):
        return f"linf_error {row['linf_error']!r} worse than reference {ref['linf_error']!r}"
    if _worse(row["max_imag"], ref["max_imag"], IMAG_RTOL, IMAG_ATOL):
        return f"max_imag {row['max_imag']!r} worse than reference {ref['max_imag']!r}"
    saturation = 1.0 / (ref["M"] * EPS)
    if ref["cond2"] < saturation and _worse(row["cond2"], ref["cond2"], COND_RTOL, 0.0):
        return f"cond2 {row['cond2']!r} rose from reference {ref['cond2']!r}"
    return None


def missing_rows(reference, cells):
    """Reference (method, N) keys that are not among the cells the config defines."""
    return sorted(set(reference) - set(cells))


def tta_cell(rows, method, target):
    """Smallest-N (method, N) whose linf_error reaches the target, or None."""
    hits = [
        n
        for (m, n), row in rows.items()
        if m == method and math.isfinite(row["linf_error"]) and row["linf_error"] <= target
    ]
    return (method, min(hits)) if hits else None

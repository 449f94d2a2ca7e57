"""A trajectory checker: the rules that every sampling run's trace obeys,
read from its trace.json and summary.json alone.

Record k holds the state a step started from (x_k, f_k, eps_k, nu_k), the
step's ||g||, t and kind.  The state after it is the next record's, or,
after the last record, the summary's final_x, final_f, eps_final and
nu_final.  ``check_trace`` applies, per record:

- Descent: gamma eps_k / 3 <= t <= t_init_factor eps_k, the step length
  ||x_{k+1} - x_k|| = t, f_{k+1} <= f_k - alpha beta t ||g|| +
  1e-9 (1 + |f_k|), and eps and nu kept;
- NullLineSearch: t = 0, ||g|| > nu_k, and x, f, eps and nu kept;
- NullTolerance: t = 0, ||g|| <= nu_k, x and f kept, and the discounts
  eps_{k+1} = mu eps_k and nu_{k+1} = vartheta nu_k;

and, per run: k = 1, 2, ... with no gap, from eps1 and nu1; every
sample_count equal to m (the params' m, or n + 2); the summary's seed,
termination and iteration count equal to the trace's; and a termination
consistent with max_iters and the floors eps_min and nu_min.

Bounds read from ||g|| follow ``driver.line_search``.  A ||g|| that
overflowed to inf in the record leaves only f_{k+1} <= f_k to check.
"""

import json
import math


def _state(src: dict, x: str, f: str, eps: str, nu: str) -> tuple:
    return [float(v) for v in src[x]], src[f], src[eps], src[nu]


def _length(v) -> float:
    return math.hypot(*v)  # inf past the float range, with no warning


def _descent(p: dict, r: dict, nxt: tuple) -> list:
    """The violations of one Descent step's rules."""
    errs = []
    x, f, eps, nu = _state(r, "x", "f", "eps", "nu")
    x1, f1, eps1, nu1 = nxt
    t, g = r["t"], r["g_norm"]
    if not p["gamma"] * eps / 3.0 <= t <= p["t_init_factor"] * eps:
        errs.append(f"t={t!r} outside [gamma eps / 3, t_init_factor eps] at eps={eps!r}")
    step = _length([b - a for a, b in zip(x, x1)])
    if not abs(step - t) <= 1e-12 * t + 1e-15 * (_length(x) + _length(x1)):
        errs.append(f"step length {step!r} is not t={t!r}")
    drop = p["alpha"] * p["beta"] * t * g
    if f == math.inf:  # every trial passes
        pass
    elif g == math.inf:
        if not f1 <= f:
            errs.append(f"f rose from {f!r} to {f1!r}")
    elif f == -math.inf or drop == math.inf:  # only a trial at -inf passes
        if f1 != -math.inf:
            errs.append(f"f={f1!r} after f={f!r} with drop {drop!r}, not -inf")
    elif not f1 <= f - drop + 1e-9 * (1.0 + abs(f)):
        errs.append(f"f={f1!r} breaks the decrease bound from f={f!r} (drop {drop!r})")
    if (eps1, nu1) != (eps, nu):
        errs.append("eps or nu changed")
    return errs


def _null(p: dict, r: dict, nxt: tuple) -> list:
    """The violations of one NullLineSearch or NullTolerance step's rules."""
    errs = []
    x, f, eps, nu = _state(r, "x", "f", "eps", "nu")
    x1, f1, eps1, nu1 = nxt
    tolerance = r["step_kind"] == "NullTolerance"
    if r["t"] != 0.0:
        errs.append(f"t={r['t']!r} on a null step")
    if (r["g_norm"] <= nu) != tolerance:
        errs.append(f"||g||={r['g_norm']!r} against nu={nu!r}")
    if x1 != x or f1 != f:
        errs.append("x or f moved")
    want = (p["mu"] * eps, p["vartheta"] * nu) if tolerance else (eps, nu)
    if (eps1, nu1) != want:
        errs.append(f"eps, nu became {eps1!r}, {nu1!r}, not {want[0]!r}, {want[1]!r}")
    return errs


_RULES = {"Descent": _descent, "NullLineSearch": _null, "NullTolerance": _null}


def check_trace(trace_json, summary_json) -> list:
    """The rule violations of the sampling run that wrote trace_json and
    summary_json, one string each, led by the record's k: [] for a run
    that keeps every rule."""
    with open(trace_json) as fh:
        trace = json.load(fh)
    with open(summary_json) as fh:
        summary = json.load(fh)
    p, records, samp = trace["params"], trace["records"], summary["sampling"]
    final = _state(samp, "final_x", "final_f", "eps_final", "nu_final")
    states = [_state(r, "x", "f", "eps", "nu") for r in records] + [final]
    errs = []
    if summary["seed"] != trace["seed"] or samp["termination"] != trace["termination"]:
        errs.append("run: the summary's seed or termination is not the trace's")
    if samp["iterations"] != len(records):
        errs.append(f"run: iterations={samp['iterations']} for {len(records)} records")
    if states[0][2:] != (p["eps1"], p["nu1"]):
        errs.append(f"run: starts at eps, nu = {states[0][2:]}, not eps1, nu1")
    m = p["m"] if p["m"] is not None else len(final[0]) + 2
    for i, r in enumerate(records):
        errs += [f"k={r['k']}: {e}" for e in _RULES[r["step_kind"]](p, r, states[i + 1])]
        if r["k"] != i + 1:
            errs.append(f"k={r['k']}: record {i + 1} has another k")
        if r["sample_count"] != m:
            errs.append(f"k={r['k']}: sample_count={r['sample_count']} for m={m}")
        if not r["eps"] > 0.0:
            errs.append(f"k={r['k']}: a step from eps={r['eps']!r}, where no ball is")
    errs += [f"run: {e}" for e in _termination(p, len(records), states, trace["termination"])]
    return errs


def _termination(p: dict, count: int, states: list, termination: str) -> list:
    """The violations of the termination rules by a run of count records
    through states, its start, every step's end and its final state."""
    def reached(state):
        return state[2] <= p["eps_min"] and state[3] <= p["nu_min"]

    errs = []
    if any(reached(s) for s in states[1:-1]):
        errs.append("a step before the last reached both floors")
    if count > p["max_iters"]:
        errs.append(f"{count} records past max_iters={p['max_iters']}")
    done = count == p["max_iters"]
    stalled = not done and states[-1][2] == 0.0 and not (count and reached(states[-1]))
    if (termination == "TolerancesReached") != (count > 0 and reached(states[-1])):
        errs.append(f"{termination} at eps, nu = {states[-1][2:]}")
    elif (termination == "MaxIters") != (done and termination != "TolerancesReached"):
        errs.append(f"{termination} after {count} of max_iters={p['max_iters']} steps")
    elif (termination == "Stalled") != stalled:
        errs.append(f"{termination} at eps={states[-1][2]!r}")
    return errs

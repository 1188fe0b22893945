"""DOP853 integration: compiled steps, dense output rebuilt afterwards in one pass.

`solve_ivp` answers like scipy's function of that name for the method DOP853
(Hairer, Norsett and Wanner, *Solving ODEs I*, II.5-6), but its steps run in
scipy's compiled `dopri853` (the `dop853` integrator of `scipy.integrate.ode`).
Python is entered only for the right-hand side and to record each accepted
step.  The 7th-order dense output, the `t_eval` samples and the event roots
come afterwards from the recorded steps: `DenseOutput` recomputes every stage
of every step with one right-hand-side call per stage over all steps, from
the tableau scipy publishes on `scipy.integrate.DOP853`.

Right-hand sides and event functions are written in component style: they
index the components of the state and return a sequence (an event returns
one value).  While stepping they receive a list of floats; while the dense
output is rebuilt, arrays of shape (D, M) with one column per step; in an
event's root search, an array of shape (D,).
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, ode
from scipy.optimize import brentq

from .errors import DomainError, IntegrationError

__all__ = ["DenseOutput", "OdeResult", "solve_ivp"]

# attempted steps per run; a run needing more is not one for an explicit method
MAX_STEPS = 1_000_000
_ROOT_TOL = 4.0 * np.finfo(float).eps  # scipy's event-root tolerance
_SLACK = 1e-12  # how far outside its run a dense output still answers
_MESSAGES = {-1: "input is not consistent", -2: "larger nsteps is needed",
             -3: "step size becomes too small", -4: "problem is probably stiff"}


class DenseOutput:
    """DOP853's 7th-order interpolant over recorded steps, built on first use.

    `t` holds the M + 1 recorded step times (monotone, either direction) and
    `y` the states, shape (D, M + 1).  The run spans t[0] to `end`: t[-1],
    or the root of a terminal event inside the last step.  A query at a
    recorded time returns that state exactly.  A query more than 1e-12
    outside the run raises DomainError; nothing is extrapolated further.
    `nfev` counts the right-hand-side columns the rebuild evaluated: 15 per
    step and one more.
    """

    def __init__(self, fun, t, y):
        self.fun = fun
        self.t = np.asarray(t, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.end = float(self.t[-1])
        self.nfev = 0
        self._sign = 1.0 if self.t[-1] >= self.t[0] else -1.0
        self._key = self._sign * self.t
        self._coeffs = None

    def _columns(self, t, y):
        out = np.empty_like(y)
        for i, value in enumerate(self.fun(t, y)):
            out[i] = value
        self.nfev += y.shape[1]
        return out

    def _rebuild(self):
        t, y = self.t, self.y
        h = np.diff(t)
        t0, y0 = t[:-1], y[:, :-1]
        f_nodes = self._columns(t, y)
        k = np.empty((16,) + y0.shape)
        k[0] = f_nodes[:, :-1]
        for s in range(1, 12):
            k[s] = self._columns(t0 + DOP853.C[s] * h,
                                 y0 + np.tensordot(DOP853.A[s, :s], k[:s], axes=1) * h)
        k[12] = f_nodes[:, 1:]
        for s, (a, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=13):
            k[s] = self._columns(t0 + c * h, y0 + np.tensordot(a[:s], k[:s], axes=1) * h)
        delta = y[:, 1:] - y0
        coeffs = np.empty((7,) + y0.shape)
        coeffs[0] = delta
        coeffs[1] = h * k[0] - delta
        coeffs[2] = 2.0 * delta - h * (k[12] + k[0])
        coeffs[3:] = h * np.tensordot(DOP853.D, k, axes=1)
        self._coeffs = coeffs[::-1]  # highest power first, as Horner's scheme takes them

    def __call__(self, t):
        """States at time t, shape (D,) for a scalar and (D, n) for n times."""
        tq = np.asarray(t, dtype=float)
        scalar = tq.ndim == 0
        tq = np.atleast_1d(tq)
        key = self._sign * tq
        outside = tq[(key < self._key[0] - _SLACK) | (key > self._sign * self.end + _SLACK)]
        if outside.size:
            raise DomainError(f"time {outside[0]} outside trajectory range")
        m = self.t.size - 1
        if m == 0:
            out = np.repeat(self.y, tq.size, axis=1)
        else:
            if self._coeffs is None:
                self._rebuild()
            j = np.clip(np.searchsorted(self._key, key, side="right") - 1, 0, m - 1)
            x = (tq - self.t[j]) / (self.t[j + 1] - self.t[j])
            x1 = 1.0 - x
            out = np.zeros((self.y.shape[0], tq.size))
            for i, coeff in enumerate(self._coeffs):
                out += coeff[:, j]
                out *= x if i % 2 == 0 else x1
            out += self.y[:, j]
            out[:, tq == self.t[-1]] = self.y[:, -1:]
        return out[:, 0] if scalar else out


class _Compiled:
    """scipy's compiled dopri853 behind two callbacks that never change.

    scipy's wrapper keeps a reference to the callbacks of every run it makes,
    so callbacks made per run would keep each run's recorded steps alive.
    These two route to the innermost run in progress instead, and the one
    stepper is reused with each run's tolerances.  One per thread.
    """

    def __init__(self):
        self.runs = []  # (rhs, solout) of the runs in progress, innermost last
        # beta: Hairer's stabilized step control, fewer steps than dop853's default 0
        self.solver = ode(self._rhs).set_integrator("dop853", nsteps=MAX_STEPS, beta=0.04)
        self.solver.set_solout(self._solout)

    def _rhs(self, t, y):
        return self.runs[-1][0](t, y)

    def _solout(self, t, y):
        return self.runs[-1][1](t, y)

    def run(self, rhs, solout, y0, t0, t1, rtol, atol, max_step):
        """Step from (t0, y0) to t1; returns dopri853's code and where it stopped."""
        stepper = self.solver._integrator
        stepper.rtol, stepper.atol = rtol, atol
        stepper.max_step = 0.0 if math.isinf(max_step) else max_step  # 0: no bound
        self.runs.append((rhs, solout))
        try:
            self.solver.set_initial_value(y0, t0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a failed run raises instead
                self.solver.integrate(t1)
        finally:
            self.runs.pop()
        return stepper.istate, self.solver.t


_LOCAL = threading.local()


@dataclass
class OdeResult:
    """The fields of scipy's `solve_ivp` result that callers read."""

    t: np.ndarray
    y: np.ndarray
    sol: DenseOutput | None
    t_events: list | None
    y_events: list | None
    status: int
    nfev: int


def _crossed(g_old, g_new, direction) -> bool:
    """scipy's event test: a zero reached or crossed in the event's direction."""
    up = g_old <= 0.0 <= g_new
    down = g_old >= 0.0 >= g_new
    return up if direction > 0 else down if direction < 0 else up or down


def _flushed(fun, rtol, atol):
    """fun with each component below 1e-100 of its error scale, too small to move y, at 0."""
    def flushed(t, y):
        return [0.0 if abs(f) < 1e-100 * (atol + rtol * abs(v)) else f
                for f, v in zip(fun(t, y), y)]

    return flushed


def solve_ivp(fun, t_span, y0, *, rtol, atol, t_eval=None, dense_output=False, events=None,
              max_step=np.inf) -> OdeResult:
    """Integrate dy/dt = fun(t, y) over t_span with DOP853; scipy's semantics.

    `events` is one function, scipy's single-callable form: `direction` picks
    its crossings, a `terminal` event ends the run at its first root, and
    roots are refined by `brentq` on the dense output.  With `t_eval` the
    result holds those samples up to where the run ended, else every step.
    A run the stepper ends early (too many steps, a step too small, a problem
    that looks stiff) raises IntegrationError carrying the steps so far; so
    does, re-raised, an exception from `fun` or the event.  A step too small
    is met by one more run if, at the last accepted state, some derivative
    component is nonzero but below 1e-100 of its error scale atol + rtol |y|:
    that run sees every such component as 0, and `nfev` counts it alone.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    y0 = np.array(y0, dtype=float)
    direction = getattr(events, "direction", 0.0)
    terminal = bool(getattr(events, "terminal", False))
    ts, ys, hits, g, errors = [], [], [], [], []  # hits: steps whose end crossed the event
    calls = 0

    def rhs(t, y):
        nonlocal calls
        calls += 1
        try:
            return step(t, y.tolist())
        except Exception as exc:  # the compiled stepper cannot carry it: re-raised below
            errors.append(exc)
            return [math.nan] * y.size

    def solout(t, y):
        y = y.tolist()
        ts.append(t)
        ys.append(y)
        if events is None:
            return 0
        try:
            g.append(events(t, y))
        except Exception as exc:
            errors.append(exc)
            return -1
        if len(g) > 1 and _crossed(g[-2], g[-1], direction):
            hits.append(len(ts) - 2)
            return -1 if terminal else 0
        return 0

    if t1 == t0:
        solout(t0, y0)
    else:
        if not hasattr(_LOCAL, "compiled"):
            _LOCAL.compiled = _Compiled()
        # dopri853 rejects every step ("step size becomes too small") when its
        # error norm, a sum of squares, is subnormal but not 0: derivatives near
        # 1e-150 of their error scale make one.  The run is made again without them.
        flushed = _flushed(fun, rtol, atol)
        for step in (fun, flushed):  # what `rhs` calls
            for kept in (ts, ys, hits, g):
                kept.clear()
            calls = 0
            code, t_stop = _LOCAL.compiled.run(rhs, solout, y0, t0, t1, rtol, atol, max_step)
            if code != -3 or errors or flushed(ts[-1], ys[-1]) == list(fun(ts[-1], ys[-1])):
                break  # a step too small with nothing to flush where it stopped is final
        if errors:
            raise errors[0]
        if code < 0:
            raise IntegrationError(f"DOP853 stopped at t = {t_stop!r}: {_MESSAGES[code]}",
                                   partial=(np.array(ts), np.array(ys)))

    times, states = np.array(ts), np.array(ys).T
    status = int(terminal and bool(hits))
    if not status:
        times[-1] = t1  # where the stepper lands, up to its last bit
    dense = DenseOutput(fun, times, states)
    t_events = y_events = None
    if events is not None:
        roots = np.array([brentq(lambda t: events(t, dense(t)), times[k], times[k + 1],
                                 xtol=_ROOT_TOL, rtol=_ROOT_TOL) for k in hits])
        # one query for every root, made only if there is one: a query builds the dense output
        t_events, y_events = [roots], [dense(roots).T if hits else np.empty((0, y0.size))]
    if status:
        dense.end = roots[-1]
        times = np.append(times[:-1], roots[-1])
        states = np.column_stack([states[:, :-1], y_events[0][-1]])
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        sign = 1.0 if t1 >= t0 else -1.0
        times = t_eval[sign * t_eval <= sign * times[-1]]
        states = dense(times)
    return OdeResult(times, states, dense if dense_output else None, t_events, y_events,
                     status, calls + dense.nfev)

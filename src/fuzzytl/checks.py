"""Randomized law suites, shared by the test suite and the check command.

Each suite draws seeded random traces, avoiding tables, and formulas, then
verifies a family of inequalities or equivalences, reporting per-law counts
and the first counterexample.  Degrees are drawn from a sixteenths grid so
that min/max-style folds are reproducible bit for bit; lasso loop degrees
come from a quarters grid, which keeps Archimedean limit brackets converging
well inside the oracle's budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .core import (
    OPERATORS,
    AlmostAlways,
    AlmostAlwaysB,
    AlmostUntil,
    AlmostUntilB,
    Always,
    AlwaysB,
    And,
    Atom,
    AvoidingFunction,
    Bot,
    Bound,
    Eventually,
    EventuallyB,
    Formula,
    Implies,
    Interpretation,
    Lasts,
    Next,
    Not,
    Or,
    Scale,
    Soon,
    Top,
    Trace,
    Until,
    UntilB,
    WeakAnd,
    WeakOr,
    Within,
)
from .errors import BudgetExceeded
from .evaluator import (
    EvalContext,
    FinitePolicy,
    almost_always_fast,
    eval_unbounded_lasso,
    evaluate,
)
from .oracle import ltl_evaluate, oracle_almost_always, oracle_almost_until, oracle_limit
from .parser import format_formula, parse
from .rewrite import _nexts, in_adequate_set, lower_to_adequate, rewrite_once, rule_set

TOL = 1e-12

DEGREE_GRID = tuple(i / 16 for i in range(17))
LOOP_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

ALL_INTERPS = (
    Interpretation.ZADEH,
    Interpretation.GODEL,
    Interpretation.LUKASIEWICZ,
    Interpretation.PRODUCT,
)
IDEMPOTENT = (Interpretation.ZADEH, Interpretation.GODEL)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


@dataclass
class LawReport:
    checks: int = 0
    failures: int = 0
    first_counterexample: Optional[str] = None


@dataclass
class SuiteReport:
    name: str
    laws: dict = field(default_factory=dict)

    def check(self, law: str, ok: bool, detail: Callable[[], str] = lambda: "") -> None:
        rep = self.laws.setdefault(law, LawReport())
        rep.checks += 1
        if not ok:
            rep.failures += 1
            if rep.first_counterexample is None:
                rep.first_counterexample = detail()

    @property
    def failures(self) -> int:
        return sum(rep.failures for rep in self.laws.values())

    @property
    def checks(self) -> int:
        return sum(rep.checks for rep in self.laws.values())

    def lines(self) -> list[str]:
        out = []
        for law in sorted(self.laws):
            rep = self.laws[law]
            if rep.failures == 0:
                out.append(f"pass  {law}  ({rep.checks} checks)")
            else:
                out.append(
                    f"FAIL  {law}  ({rep.failures}/{rep.checks} checks): "
                    f"{rep.first_counterexample}"
                )
        return out


# ---------------------------------------------------------------------------
# Random structure generators
# ---------------------------------------------------------------------------


def random_eta(rng: random.Random, max_n: int = 5, min_n: int = 1) -> AvoidingFunction:
    n = rng.randint(min_n, max_n)
    if n == 1:
        return AvoidingFunction.crisp()
    pool = sorted(rng.sample([i / 16 for i in range(1, 16)], n - 1), reverse=True)
    return AvoidingFunction((1.0, *pool))


def random_trace(
    rng: random.Random,
    atoms: Sequence[str] = ("p", "q"),
    max_len: int = 12,
    lasso: Optional[bool] = None,
    crisp: bool = False,
) -> Trace:
    length = rng.randint(1, max_len)
    if lasso is None:
        lasso = rng.random() < 0.5
    loop_start = rng.randrange(length) if lasso else None
    rows = []
    for i in range(length):
        if crisp:
            grid: Sequence[float] = (0.0, 1.0)
        elif loop_start is not None and i >= loop_start:
            grid = LOOP_GRID
        else:
            grid = DEGREE_GRID
        rows.append(tuple(rng.choice(grid) for _ in atoms))
    return Trace(tuple(atoms), tuple(rows), loop_start)


_LEAF_WEIGHTS = ((Atom, 8), (Top, 1), (Bot, 1))
#: Draw order and weights fix every seeded suite's cases; keep both.
_NODE_WEIGHTS = (
    (Not, 2),
    (And, 2),
    (Or, 2),
    (Implies, 1),
    (WeakAnd, 1),
    (WeakOr, 1),
    (Next, 2),
    (Soon, 1),
    (EventuallyB, 1),
    (AlwaysB, 1),
    (Eventually, 1),
    (Always, 1),
    (AlmostAlways, 1),
    (AlmostAlwaysB, 1),
    (Lasts, 1),
    (Within, 1),
    (Until, 1),
    (UntilB, 1),
    (AlmostUntil, 1),
    (AlmostUntilB, 1),
    (Scale, 1),
)


def _pick(rng: random.Random, table) -> type:
    total = sum(w for _, w in table)
    roll = rng.randrange(total)
    for kind, w in table:
        roll -= w
        if roll < 0:
            return kind
    raise AssertionError


def random_formula(
    rng: random.Random,
    atoms: Sequence[str] = ("p", "q"),
    depth: int = 3,
    max_bound: int = 3,
    n_eta: int = 1,
    allow_scale: bool = True,
    allow_unbounded: bool = True,
) -> Formula:
    if depth <= 0:
        kind = _pick(rng, _LEAF_WEIGHTS)
        if kind is Atom:
            return Atom(rng.choice(list(atoms)))
        return kind()
    kind = _pick(rng, _NODE_WEIGHTS)
    if kind is Scale and (not allow_scale or n_eta < 2):
        kind = Next
    if not allow_unbounded and OPERATORS[kind].unbounded:
        kind = EventuallyB

    def sub() -> Formula:
        return random_formula(
            rng, atoms, rng.randint(0, depth - 1), max_bound, n_eta, allow_scale, allow_unbounded
        )

    spec = OPERATORS[kind]
    t = rng.randint(0, max_bound)
    if spec.bound == Bound.INDEX:
        params: tuple[int, ...] = (rng.randint(1, n_eta - 1),)
    else:
        params = () if spec.param is None else (t,)
    return kind(*params, *[sub() for _ in spec.children])


# ---------------------------------------------------------------------------
# Chain suite: operator inequalities and exact unfoldings
# ---------------------------------------------------------------------------


def _value(ctx: EvalContext, f: Formula, pos: int) -> float:
    return evaluate(ctx, f, pos).value


def _case_detail(ctx: EvalContext, pos: int, text: str) -> Callable[[], str]:
    def build() -> str:
        return (
            f"{text} | interp={ctx.interp.value} pos={pos} "
            f"eta={list(ctx.eta.table)} loop={ctx.trace.loop_start} "
            f"states={[list(r) for r in ctx.trace.states]}"
        )

    return build


def _chain_checks(
    report: SuiteReport, ctx: EvalContext, phi: Formula, psi: Formula, pos: int, t: int, tp: int
) -> None:
    n_eta = ctx.eta.n_eta
    lasso = ctx.trace.is_lasso
    v = lambda f: _value(ctx, f, pos)
    phi_text = format_formula(phi)

    def d(**vals):
        # lazy: only built when a law actually fails
        def build() -> str:
            shown = " ".join(f"{k}={val!r}" for k, val in vals.items())
            return (
                f"{phi_text} {shown} | interp={ctx.interp.value} pos={pos} t={t} t'={tp} "
                f"eta={list(ctx.eta.table)} loop={ctx.trace.loop_start} "
                f"states={[list(r) for r in ctx.trace.states]}"
            )

        return build

    base = v(phi)
    x_phi = v(Next(phi))
    soon = v(Soon(phi))
    report.check("next-below-soon", x_phi <= soon + TOL, d(next=x_phi, soon=soon))

    f_0 = v(EventuallyB(0, phi))
    f_t, f_tp = v(EventuallyB(t, phi)), v(EventuallyB(tp, phi))
    report.check("eventually-chain-base", abs(f_0 - base) <= TOL, d(f0=f_0, phi=base))
    report.check(
        "eventually-chain-grow",
        base <= f_t + TOL and f_t <= f_tp + TOL,
        d(phi=base, ft=f_t, ftp=f_tp),
    )
    if lasso:
        f_inf = v(Eventually(phi))
        report.check("eventually-chain-limit", f_tp <= f_inf + TOL, d(ftp=f_tp, f=f_inf))

    g_t, g_tp = v(AlwaysB(t, phi)), v(AlwaysB(tp, phi))
    g_one = v(AlwaysB(1, phi))
    ordered_below_one = g_t <= g_one + TOL if t >= 1 else True
    report.check(
        "always-chain",
        g_tp <= g_t + TOL and ordered_below_one and g_one <= base + TOL,
        d(gtp=g_tp, gt=g_t, g1=g_one, phi=base),
    )
    and_next = v(And(phi, Next(phi)))
    report.check("always-one-is-and-next", abs(g_one - and_next) <= TOL, d(g1=g_one, and_next=and_next))
    if lasso:
        g_inf = v(Always(phi))
        f_inf = v(Eventually(phi))
        report.check("always-chain-limit", g_inf <= g_tp + TOL, d(g=g_inf, gtp=g_tp))
        report.check("always-below-eventually", g_inf <= f_inf + TOL, d(g=g_inf, f=f_inf))

    w_t = v(Within(t, phi))
    f_wide = v(EventuallyB(t + n_eta, phi))
    report.check(
        "within-squeeze",
        f_t <= w_t + TOL and w_t <= f_wide + TOL,
        d(ft=f_t, wt=w_t, f_wide=f_wide),
    )
    report.check("always-below-within", g_tp <= w_t + TOL, d(gtp=g_tp, wt=w_t))
    report.check(
        "always-below-eventually-b",
        g_t <= f_tp + TOL and g_tp <= f_t + TOL,
        d(gt=g_t, ftp=f_tp, gtp=g_tp, ft=f_t),
    )

    ag_t = v(AlmostAlwaysB(t, phi))
    l_t = v(Lasts(t, phi))
    l_tp = v(Lasts(tp, phi))
    report.check("almost-always-above-always", ag_t >= g_t - TOL, d(agt=ag_t, gt=g_t))
    report.check(
        "lasts-between", g_t <= l_t + TOL and l_t <= ag_t + TOL, d(gt=g_t, lt=l_t, agt=ag_t)
    )
    report.check("lasts-non-increasing", l_tp <= l_t + TOL, d(ltp=l_tp, lt=l_t))
    if lasso:
        ag_inf = v(AlmostAlways(phi))
        g_inf = v(Always(phi))
        report.check(
            "almost-always-limit-above-always", ag_inf >= g_inf - TOL, d(ag=ag_inf, g=g_inf)
        )

    u_0 = v(UntilB(0, phi, psi))
    u_t, u_tp = v(UntilB(t, phi, psi)), v(UntilB(tp, phi, psi))
    au_t, au_tp = v(AlmostUntilB(t, phi, psi)), v(AlmostUntilB(tp, phi, psi))
    psi_v = v(psi)
    report.check("until-chain-base", abs(u_0 - psi_v) <= TOL, d(u0=u_0, psi=psi_v))
    report.check(
        "until-chain-grow",
        psi_v <= u_t + TOL and u_t <= u_tp + TOL,
        d(psi=psi_v, ut=u_t, utp=u_tp),
    )
    report.check(
        "almost-until-above-until",
        u_t <= au_t + TOL and u_tp <= au_tp + TOL,
        d(ut=u_t, aut=au_t, utp=u_tp, autp=au_tp),
    )
    if lasso:
        u_inf = v(Until(phi, psi))
        f_psi = v(Eventually(psi))
        au_inf = v(AlmostUntil(phi, psi))
        report.check(
            "until-chain-limit",
            u_tp <= u_inf + TOL and u_inf <= f_psi + TOL,
            d(utp=u_tp, u=u_inf, f_psi=f_psi),
        )
        report.check("almost-until-chain-limit", au_tp <= au_inf + TOL, d(autp=au_tp, au=au_inf))

    if t >= 1:
        f_unf = v(Or(phi, Next(EventuallyB(t - 1, phi))))
        report.check("eventually-unfold", abs(f_t - f_unf) <= TOL, d(ft=f_t, unfolded=f_unf))
        g_unf = v(And(phi, Next(AlwaysB(t - 1, phi))))
        report.check("always-unfold", abs(g_t - g_unf) <= TOL, d(gt=g_t, unfolded=g_unf))
        step = _value(ctx, And(AlwaysB(t - 1, phi), _nexts(t, psi)), pos)
        u_prev = v(UntilB(t - 1, phi, psi))
        report.check(
            "until-recursion",
            abs(u_t - max(u_prev, step)) <= TOL,
            d(ut=u_t, u_prev=u_prev, step=step),
        )
        step_au = _value(ctx, And(AlmostAlwaysB(t - 1, phi), _nexts(t, psi)), pos)
        au_prev = v(AlmostUntilB(t - 1, phi, psi))
        report.check(
            "almost-until-recursion",
            abs(au_t - max(au_prev, step_au)) <= TOL,
            d(aut=au_t, au_prev=au_prev, step=step_au),
        )

    if lasso and ctx.interp in IDEMPOTENT:
        start = ctx.trace.resolve(pos)
        scan = range(start, ctx.trace.loop_start) if start < ctx.trace.loop_start else ()
        suffix = [_value(ctx, phi, p) for p in scan]
        base_pos = max(start, ctx.trace.loop_start)
        suffix += [_value(ctx, phi, base_pos + k) for k in range(ctx.trace.loop_length)]
        constant = max(suffix) - min(suffix) <= TOL
        f_inf, g_inf = v(Eventually(phi)), v(Always(phi))
        equal = abs(f_inf - g_inf) <= TOL
        report.check(
            "eventually-equals-always-iff-constant",
            constant == equal,
            d(f=f_inf, g=g_inf, suffix_values=suffix),
        )

        horizon = max(0, ctx.trace.loop_start - start) + 3 * ctx.trace.loop_length
        l_far = v(Lasts(horizon, phi))
        report.check(
            "lasts-converges-to-always", abs(l_far - g_inf) <= 1e-9, d(l_far=l_far, g=g_inf)
        )
    if lasso and ctx.interp not in IDEMPOTENT:
        start = ctx.trace.resolve(pos)
        base_pos = max(start, ctx.trace.loop_start)
        loop_vals = [_value(ctx, phi, base_pos + k) for k in range(ctx.trace.loop_length)]
        g_inf = v(Always(phi))
        if any(val < 1.0 for val in loop_vals):
            report.check(
                "always-limit-archimedean-zero", g_inf == 0.0, d(g=g_inf, loop_values=loop_vals)
            )
        else:
            prefix_vals = [_value(ctx, phi, p) for p in range(start, ctx.trace.loop_start)]
            expected = 1.0
            if prefix_vals:
                expected = prefix_vals[0]
                for val in prefix_vals[1:]:
                    expected = ctx.ops.tnorm(expected, val)
            report.check(
                "always-limit-archimedean-prefix",
                abs(g_inf - expected) <= TOL,
                d(g=g_inf, prefix_product=expected),
            )


def run_chain_suite(seed: int, cases: int) -> SuiteReport:
    """Operator inequality chains, unfoldings, and recursion coherence."""
    report = SuiteReport("chains")
    rng = random.Random(seed)
    for _ in range(cases):
        trace = random_trace(rng, max_len=8)
        eta = random_eta(rng, max_n=4)
        phi = random_formula(rng, depth=2, n_eta=eta.n_eta, allow_unbounded=False)
        psi = random_formula(rng, depth=1, n_eta=eta.n_eta, allow_unbounded=False)
        t, tp = sorted((rng.randint(0, 4), rng.randint(0, 4)))
        for interp in ALL_INTERPS:
            ctx = EvalContext(trace, interp, eta, FinitePolicy.PAD_ZERO)
            for pos in range(len(trace)):
                _chain_checks(report, ctx, phi, psi, pos, t, tp)
    return report


# ---------------------------------------------------------------------------
# Oracle suite: fast almost-operators against enumeration
# ---------------------------------------------------------------------------


def run_oracle_suite(seed: int, cases: int) -> SuiteReport:
    """Fast almost-always against subset enumeration, exactly; almost-until
    against its direct max formula; lasso limits against bracket limits."""
    report = SuiteReport("oracle")
    rng = random.Random(seed)
    for case in range(cases):
        trace = random_trace(rng, max_len=13)
        eta = random_eta(rng, max_n=4)
        interp = ALL_INTERPS[case % len(ALL_INTERPS)]
        ctx = EvalContext(trace, interp, eta, FinitePolicy.PAD_ZERO)
        phi = random_formula(rng, depth=1, n_eta=eta.n_eta, allow_unbounded=False)
        psi = random_formula(rng, depth=1, n_eta=eta.n_eta, allow_unbounded=False)
        pos = rng.randrange(len(trace))
        t = rng.randint(0, min(12, len(trace) - 1))
        fast = almost_always_fast(ctx, phi, pos, t)
        slow = oracle_almost_always(ctx, phi, pos, t)
        report.check(
            "fast-almost-always-equals-enumeration",
            fast == slow,
            _case_detail(ctx, pos, f"t={t} fast={fast!r} oracle={slow!r}"),
        )
        via_eval = evaluate(ctx, AlmostUntilB(t, phi, psi), pos).value
        direct = oracle_almost_until(ctx, phi, psi, pos, t)
        report.check(
            "almost-until-equals-direct-formula",
            abs(via_eval - direct) <= TOL,
            _case_detail(ctx, pos, f"t={t} eval={via_eval!r} oracle={direct!r}"),
        )
    return report


#: The unbounded rows whose lasso limits the suite checks: F, G, AG, U, AU.
_LASSO = [spec for spec in OPERATORS.values() if spec.unbounded]


def _lasso_child(rng: random.Random) -> Formula:
    # atom-level children keep loop degrees on the coarse grid, so the
    # Archimedean limit brackets stay inside the oracle's budget
    return rng.choice([Atom("p"), Atom("q"), Not(Atom("p")), Not(Atom("q"))])


def run_lasso_suite(seed: int, cases: int) -> SuiteReport:
    """Exact lasso limits against the bracketing limit oracle."""
    report = SuiteReport("lasso")
    rng = random.Random(seed)
    for case in range(cases):
        trace = random_trace(rng, max_len=8, lasso=True)
        eta = random_eta(rng, max_n=4)
        phi = _lasso_child(rng)
        psi = _lasso_child(rng)
        pos = rng.randrange(len(trace) + 2)
        heads = [(spec.keyword, spec.cls(*(phi, psi)[: len(spec.children)])) for spec in _LASSO]
        for interp in ALL_INTERPS:
            ctx = EvalContext(trace, interp, eta)
            for head, f in heads:
                exact = eval_unbounded_lasso(ctx, f, pos)
                bracket = oracle_limit(ctx, f, pos, 1e-7)
                report.check(
                    f"lasso-limit-{head}",
                    abs(exact - bracket) <= 1e-6,
                    _case_detail(ctx, pos, f"exact={exact!r} bracket={bracket!r}"),
                )
    # constant versus non-constant loops pin the eventually/always gap
    for case in range(max(1, cases // 4)):
        level = rng.choice(DEGREE_GRID)
        constant = Trace(("p",), ((level,),) * rng.randint(1, 4), loop_start=0)
        for interp in IDEMPOTENT:
            ctx = EvalContext(constant, interp, AvoidingFunction.crisp())
            fv = evaluate(ctx, Eventually(Atom("p"))).value
            gv = evaluate(ctx, Always(Atom("p"))).value
            report.check(
                "constant-lasso-eventually-equals-always",
                fv == gv == level,
                _case_detail(ctx, 0, f"F={fv!r} G={gv!r}"),
            )
        varied = random_trace(rng, atoms=("p",), max_len=6, lasso=True)
        vals = {row[0] for row in varied.states}
        if len(vals) > 1:
            suffix_vals = [varied.at(k, "p") for k in range(len(varied) + varied.loop_length)]
            if max(suffix_vals) > min(suffix_vals):
                for interp in IDEMPOTENT:
                    ctx = EvalContext(varied, interp, AvoidingFunction.crisp())
                    fv = evaluate(ctx, Eventually(Atom("p"))).value
                    gv = evaluate(ctx, Always(Atom("p"))).value
                    report.check(
                        "non-constant-lasso-eventually-above-always",
                        fv > gv,
                        _case_detail(ctx, 0, f"F={fv!r} G={gv!r}"),
                    )
    return report


# ---------------------------------------------------------------------------
# Crisp suite: boolean collapse
# ---------------------------------------------------------------------------


def run_crisp_suite(seed: int, cases: int) -> SuiteReport:
    """With a crisp trace and n_eta = 1, every operator matches boolean LTL."""
    report = SuiteReport("crisp")
    rng = random.Random(seed)
    crisp_eta = AvoidingFunction.crisp()
    for case in range(cases):
        trace = random_trace(rng, max_len=8, lasso=True, crisp=True)
        phi = random_formula(rng, depth=2, allow_scale=False)
        psi = random_formula(rng, depth=1, allow_scale=False)
        t = rng.randint(0, 3)
        pos = rng.randrange(len(trace))
        ltl_value = 1.0 if ltl_evaluate(trace, phi, pos).value else 0.0
        for interp in ALL_INTERPS:
            ctx = EvalContext(trace, interp, crisp_eta)
            got = evaluate(ctx, phi, pos).value
            d = _case_detail(ctx, pos, f"{format_formula(phi)} got={got!r} ltl={ltl_value!r}")
            report.check("crisp-value-is-boolean", got in (0.0, 1.0), d)
            report.check("crisp-matches-ltl", got == ltl_value, d)
            pairs = [
                ("soon-collapses-to-next", Soon(phi), Next(phi)),
                ("within-collapses-to-eventually", Within(t, phi), EventuallyB(t, phi)),
                ("almost-always-collapses-to-always", AlmostAlwaysB(t, phi), AlwaysB(t, phi)),
                ("lasts-collapses-to-always", Lasts(t, phi), AlwaysB(t, phi)),
                ("almost-until-collapses-to-until", AlmostUntilB(t, phi, psi), UntilB(t, phi, psi)),
                ("unbounded-almost-always-collapses", AlmostAlways(phi), Always(phi)),
                ("unbounded-almost-until-collapses", AlmostUntil(phi, psi), Until(phi, psi)),
            ]
            for law, relaxed, plain in pairs:
                rv = evaluate(ctx, relaxed, pos).value
                pv = evaluate(ctx, plain, pos).value
                report.check(
                    law,
                    rv == pv,
                    _case_detail(ctx, pos, f"{format_formula(relaxed)} {rv!r} vs {pv!r}"),
                )
        # boolean crisp correspondence is eta-independent for plain F, G, U
        any_eta = random_eta(rng, max_n=4)
        for interp in (Interpretation.ZADEH, Interpretation.LUKASIEWICZ):
            ctx = EvalContext(trace, interp, any_eta)
            for law, f in (
                ("crisp-eventually-correspondence", Eventually(Atom("p"))),
                ("crisp-always-correspondence", Always(Atom("p"))),
                ("crisp-until-correspondence", Until(Atom("p"), Atom("q"))),
            ):
                got = evaluate(ctx, f, pos).value
                want = ltl_evaluate(trace, f, pos).value
                report.check(
                    law,
                    got in (0.0, 1.0) and (got == 1.0) == want,
                    _case_detail(ctx, pos, f"{format_formula(f)} got={got!r} ltl={want!r}"),
                )
    return report


# ---------------------------------------------------------------------------
# Rewrite suite: every rule preserves value
# ---------------------------------------------------------------------------


#: Rule name -> the node class it rewrites (the same for every avoiding table).
_RULE_PATTERNS = {name: rule.pattern for name, rule in rule_set(AvoidingFunction.crisp()).items()}


def _pattern_instance(rng: random.Random, rule_name: str, n_eta: int) -> Formula:
    """A random node of the class the rule rewrites, over bounded children."""
    spec = OPERATORS[_RULE_PATTERNS[rule_name]]
    t = rng.randint(0, 3)
    j = rng.randint(1, max(1, n_eta - 1))
    if spec.bound == Bound.INDEX:
        params: tuple[int, ...] = (j,)
    else:
        params = () if spec.param is None else (t,)
    kids = [random_formula(rng, depth=1, n_eta=n_eta, allow_unbounded=False) for _ in spec.children]
    return spec.cls(*params, *kids)


#: The lowering corpus: formulas every lowering target must handle.  Unbounded
#: always and almost-always stay out: the first has no sound removal under
#: Godel and the second has none anywhere.
LOWERING_CORPUS = (
    "p",
    "!p",
    "p & q",
    "p | q",
    "p -> q",
    "p && q",
    "p || q",
    "X p",
    "X[2] p | q",
    "S p",
    "F[2] p",
    "G[2] p",
    "W[1] p",
    "L[2] p",
    "AG[2] p",
    "p U[2] q",
    "p AU[2] q",
    "F p",
    "p U q",
    "(p -> q) AU (S q | F[1] p)",
)


def run_rewrite_suite(seed: int, cases_per_rule: int) -> SuiteReport:
    """Value preservation of every rule, plus adequate-set lowering."""
    report = SuiteReport("rewrites")
    rng = random.Random(seed)
    probe_names = sorted(rule_set(AvoidingFunction.crisp()))
    for name in probe_names:
        for _ in range(cases_per_rule):
            # the scaling pattern only exists once the table has a second entry
            eta = random_eta(rng, max_n=4, min_n=2 if name == "scale-to-and" else 1)
            rule = rule_set(eta)[name]
            before = _pattern_instance(rng, name, eta.n_eta)
            after = rewrite_once(before, rule)
            trace = random_trace(rng, max_len=8)
            pos = rng.randrange(len(trace))
            for interp in sorted(rule.applicable_interps, key=lambda i: i.value):
                ctx = EvalContext(trace, interp, eta, FinitePolicy.PAD_ZERO)
                v_before = evaluate(ctx, before, pos).value
                v_after = evaluate(ctx, after, pos).value
                report.check(
                    f"rule-{name}",
                    abs(v_before - v_after) <= TOL,
                    _case_detail(
                        ctx,
                        pos,
                        f"{format_formula(before)} ~> {format_formula(after)}: "
                        f"{v_before!r} vs {v_after!r}",
                    ),
                )

    for interp in (Interpretation.ZADEH, Interpretation.GODEL):
        for text in LOWERING_CORPUS:
            f = parse(text)
            eta = random_eta(rng, max_n=3)
            try:
                lowered = lower_to_adequate(f, interp, budget=100_000, eta=eta)
            except BudgetExceeded:
                report.check(f"lowering-terminates-{interp.value}", False, lambda: text)
                continue
            report.check(
                f"lowering-terminates-{interp.value}",
                in_adequate_set(lowered, interp),
                lambda: f"{text} ~> {format_formula(lowered)}",
            )
            for _ in range(5):
                trace = random_trace(rng, max_len=6)
                ctx = EvalContext(trace, interp, eta, FinitePolicy.PAD_ZERO)
                pos = rng.randrange(len(trace))
                v0 = evaluate(ctx, f, pos).value
                v1 = evaluate(ctx, lowered, pos).value
                report.check(
                    f"lowering-preserves-{interp.value}",
                    abs(v0 - v1) <= TOL,
                    _case_detail(ctx, pos, f"{text}: {v0!r} vs {v1!r}"),
                )

    # the product logic's almost-always expansion outgrows any modest budget
    eta3 = AvoidingFunction((1.0, 0.5, 0.3))
    try:
        lower_to_adequate(parse("AG[4] p"), Interpretation.PRODUCT, budget=10_000, eta=eta3)
        report.check("lowering-product-blowup", False, lambda: "no budget exhaustion")
    except BudgetExceeded:
        report.check("lowering-product-blowup", True)

    # negation is not involutive under Godel, so the duality must not apply
    godel_rules = rule_set(AvoidingFunction.crisp())
    fg = godel_rules["FG-dual"]
    report.check(
        "fg-dual-not-listed-for-godel-or-product",
        Interpretation.GODEL not in fg.applicable_interps
        and Interpretation.PRODUCT not in fg.applicable_interps,
    )
    half = Trace(("p",), ((0.5,),), loop_start=0)
    ctx = EvalContext(half, Interpretation.GODEL, AvoidingFunction.crisp())
    dual = evaluate(ctx, Not(Eventually(Not(Atom("p"))))).value
    plain = evaluate(ctx, Always(Atom("p"))).value
    report.check(
        "fg-dual-fails-under-godel",
        abs(dual - plain) > TOL,
        lambda: f"dual={dual!r} plain={plain!r}",
    )
    return report


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

SUITES = {
    "chains": run_chain_suite,
    "oracle": run_oracle_suite,
    "crisp": run_crisp_suite,
    # cases counts samples per rule here; 300 already covers the gate
    "rewrites": lambda seed, cases: run_rewrite_suite(seed, max(1, min(cases, 300))),
    "lasso": run_lasso_suite,
}

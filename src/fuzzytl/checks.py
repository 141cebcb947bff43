"""Randomized law suites, shared by the test suite and the check command.

Each suite draws seeded random traces, avoiding tables, and formulas, then
verifies a family of inequalities or equivalences, reporting per-law counts
and the first counterexample.  Degrees are drawn from a sixteenths grid so
that min/max-style folds are reproducible bit for bit; lasso loop degrees
come from a quarters grid, which keeps Archimedean limit brackets converging
well inside the oracle's budget.
"""

from __future__ import annotations

import functools
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
    _run,
    _span,
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


def _case_detail(ctx: EvalContext, pos: int, text: str) -> Callable[[], str]:
    def build() -> str:
        return (
            f"{text} | interp={ctx.interp.value} pos={pos} "
            f"eta={list(ctx.eta.table)} loop={ctx.trace.loop_start} "
            f"states={[list(r) for r in ctx.trace.states]}"
        )

    return build


def _chain_terms(phi: Formula, psi: Formula, t: int, tp: int, n_eta: int, lasso: bool) -> dict:
    """Every term a chain law reads, built once per case and keyed by the
    label its failure detail shows, or by a key of its own where two terms
    share a label."""
    nxt = Next(phi)
    terms = dict(
        phi=phi, psi=psi, next=nxt, soon=Soon(phi),
        f0=EventuallyB(0, phi), ft=EventuallyB(t, phi), ftp=EventuallyB(tp, phi),
        f_wide=EventuallyB(t + n_eta, phi), wt=Within(t, phi),
        gt=AlwaysB(t, phi), gtp=AlwaysB(tp, phi), g1=AlwaysB(1, phi), and_next=And(phi, nxt),
        agt=AlmostAlwaysB(t, phi), lt=Lasts(t, phi), ltp=Lasts(tp, phi),
        u0=UntilB(0, phi, psi), ut=UntilB(t, phi, psi), utp=UntilB(tp, phi, psi),
        aut=AlmostUntilB(t, phi, psi), autp=AlmostUntilB(tp, phi, psi),
    )
    if t >= 1:  # the unfoldings, and each until's previous window and step
        g_prev, later = AlwaysB(t - 1, phi), _nexts(t, psi)
        terms.update(
            f_unf=Or(phi, Next(EventuallyB(t - 1, phi))), g_unf=And(phi, Next(g_prev)),
            u_prev=UntilB(t - 1, phi, psi), step=And(g_prev, later),
            au_prev=AlmostUntilB(t - 1, phi, psi), step_au=And(AlmostAlwaysB(t - 1, phi), later),
        )
    if lasso:  # the unbounded limits
        terms.update(
            f=Eventually(phi), g=Always(phi), ag=AlmostAlways(phi),
            u=Until(phi, psi), f_psi=Eventually(psi), au=AlmostUntil(phi, psi),
        )
    return terms


#: The chain laws, in check order: name; guard, "always", "lasso" (lasso
#: traces only) or "t>=1"; the ``_chain_terms`` keys its failure detail shows,
#: in order, each as key or label=key; and whether it holds, over the case's t
#: and the shown terms' values at one position.
_CHAIN_LAWS = (
    ("next-below-soon", "always", "next soon", lambda t, nxt, soon: nxt <= soon + TOL),
    ("eventually-chain-base", "always", "f0 phi", lambda t, f0, phi: abs(f0 - phi) <= TOL),
    ("eventually-chain-grow", "always", "phi ft ftp",
     lambda t, phi, ft, ftp: phi <= ft + TOL and ft <= ftp + TOL),
    ("eventually-chain-limit", "lasso", "ftp f", lambda t, ftp, f: ftp <= f + TOL),
    ("always-chain", "always", "gtp gt g1 phi", lambda t, gtp, gt, g1, phi:
     gtp <= gt + TOL and (gt <= g1 + TOL if t >= 1 else True) and g1 <= phi + TOL),
    ("always-one-is-and-next", "always", "g1 and_next", lambda t, g1, conj: abs(g1 - conj) <= TOL),
    ("always-chain-limit", "lasso", "g gtp", lambda t, g, gtp: g <= gtp + TOL),
    ("always-below-eventually", "lasso", "g f", lambda t, g, f: g <= f + TOL),
    ("within-squeeze", "always", "ft wt f_wide",
     lambda t, ft, wt, f_wide: ft <= wt + TOL and wt <= f_wide + TOL),
    ("always-below-within", "always", "gtp wt", lambda t, gtp, wt: gtp <= wt + TOL),
    ("always-below-eventually-b", "always", "gt ftp gtp ft",
     lambda t, gt, ftp, gtp, ft: gt <= ftp + TOL and gtp <= ft + TOL),
    ("almost-always-above-always", "always", "agt gt", lambda t, agt, gt: agt >= gt - TOL),
    ("lasts-between", "always", "gt lt agt",
     lambda t, gt, lt, agt: gt <= lt + TOL and lt <= agt + TOL),
    ("lasts-non-increasing", "always", "ltp lt", lambda t, ltp, lt: ltp <= lt + TOL),
    ("almost-always-limit-above-always", "lasso", "ag g", lambda t, ag, g: ag >= g - TOL),
    ("until-chain-base", "always", "u0 psi", lambda t, u0, psi: abs(u0 - psi) <= TOL),
    ("until-chain-grow", "always", "psi ut utp",
     lambda t, psi, ut, utp: psi <= ut + TOL and ut <= utp + TOL),
    ("almost-until-above-until", "always", "ut aut utp autp",
     lambda t, ut, aut, utp, autp: ut <= aut + TOL and utp <= autp + TOL),
    ("until-chain-limit", "lasso", "utp u f_psi",
     lambda t, utp, u, f_psi: utp <= u + TOL and u <= f_psi + TOL),
    ("almost-until-chain-limit", "lasso", "autp au", lambda t, autp, au: autp <= au + TOL),
    ("eventually-unfold", "t>=1", "ft unfolded=f_unf", lambda t, ft, unf: abs(ft - unf) <= TOL),
    ("always-unfold", "t>=1", "gt unfolded=g_unf", lambda t, gt, unf: abs(gt - unf) <= TOL),
    ("until-recursion", "t>=1", "ut u_prev step",
     lambda t, ut, prev, step: abs(ut - max(prev, step)) <= TOL),
    ("almost-until-recursion", "t>=1", "aut au_prev step=step_au",
     lambda t, aut, prev, step: abs(aut - max(prev, step)) <= TOL),
)


def _chain_checks(report: SuiteReport, ctx: EvalContext, t: int, tp: int, terms: dict) -> None:
    """Every chain law at every position of one context, read from one
    range fill of each term's column over a memo all the terms share."""
    trace, n, loop = ctx.trace, len(ctx.trace), ctx.trace.loop_start
    cols = _run(ctx, 0, lambda memo: {k: _span(ctx, f, 0, n, memo) for k, f in terms.items()})
    applies = {"always": True, "lasso": loop is not None, "t>=1": t >= 1}
    laws = [(law, shown, [cols[s.split("=")[-1]] for s in shown.split()], holds)
            for law, guard, shown, holds in _CHAIN_LAWS if applies[guard]]
    phi_text, phi_col = format_formula(terms["phi"]), cols["phi"]

    def check(pos, law, ok, shown, values):
        def detail() -> str:  # built only when the law fails
            pairs = " ".join(f"{s.split('=')[0]}={v!r}" for s, v in zip(shown.split(), values))
            return (
                f"{phi_text} {pairs} | interp={ctx.interp.value} pos={pos} t={t} t'={tp} "
                f"eta={list(ctx.eta.table)} loop={loop} states={[list(r) for r in trace.states]}"
            )

        report.check(law, ok, detail)

    if loop is not None and ctx.interp in IDEMPOTENT:  # how far Lasts reads from each position
        far = [Lasts(max(0, loop - p) + 3 * trace.loop_length, terms["phi"]) for p in range(n)]
    for pos in range(n):
        for law, shown, cells, holds in laws:
            values = [col[pos] for col in cells]
            check(pos, law, holds(t, *values), shown, values)
        if loop is None:
            continue
        # the lasso's shape: phi from pos up to the loop, then once round it
        prefix, start = phi_col[pos:loop], max(pos, loop)
        cycle = [phi_col[trace.resolve(p)] for p in range(start, start + trace.loop_length)]
        g = cols["g"][pos]
        if ctx.interp in IDEMPOTENT:
            suffix, f = prefix + cycle, cols["f"][pos]
            constant, equal = max(suffix) - min(suffix) <= TOL, abs(f - g) <= TOL
            check(pos, "eventually-equals-always-iff-constant", constant == equal,
                  "f g suffix_values", (f, g, suffix))
            l_far = evaluate(ctx, far[pos], pos).value
            check(pos, "lasts-converges-to-always", abs(l_far - g) <= 1e-9, "l_far g", (l_far, g))
        elif any(val < 1.0 for val in cycle):
            check(pos, "always-limit-archimedean-zero", g == 0.0, "g loop_values", (g, cycle))
        else:
            product = functools.reduce(ctx.ops.tnorm, prefix) if prefix else 1.0
            check(pos, "always-limit-archimedean-prefix", abs(g - product) <= TOL,
                  "g prefix_product", (g, product))


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
        terms = _chain_terms(phi, psi, t, tp, eta.n_eta, trace.is_lasso)
        for interp in ALL_INTERPS:
            ctx = EvalContext(trace, interp, eta, FinitePolicy.PAD_ZERO)
            _chain_checks(report, ctx, t, tp, terms)
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

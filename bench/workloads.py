"""Seeded workloads for the credal benchmark.

Every generated problem is the image of a known joint distribution ``p0``:
marginal tables are marginals of ``p0``, intervals, orderings and linear rows
are chosen so that ``p0`` satisfies them.  ``p0`` therefore lies in the credal
set K and serves as an oracle.  The checkers below use only this module's own
exact rational arithmetic; they never call into ``credal``.

A workload turns ``(seed, i)`` into request ``i``; the same pair always gives
byte-identical inputs.  Request ``i`` takes its size class from ``i`` modulo a
fixed mix, so every run sees the same input mix whatever its seed; the seed
only draws the numbers.  Each mix puts a size class around the 50th and the
90th percentile of latency, so that neither falls between two classes, where
it would jump from run to run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction

BINARY = ("0", "1")


# --------------------------------------------------------------------------
# exact helpers (independent of credal)


def states_of(variables):
    """Joint states in the order credal enumerates them: product of value lists."""
    return list(itertools.product(*(vals for _, vals in variables)))


def key(state) -> str:
    return ",".join(state)


def random_dist(rng: random.Random, n: int) -> list[Fraction]:
    """A full-support rational distribution with small denominators."""
    w = [rng.randint(1, 9) for _ in range(n)]
    total = sum(w)
    return [Fraction(x, total) for x in w]


def block_rows(variables, block):
    """(cell, 0/1 indicator over joint states) for each cell of a block.

    The block's variables are taken in ambient declaration order, which is
    how credal keys marginal tables.
    """
    names = [n for n, _ in variables]
    pos = [names.index(n) for n in names if n in block]
    sub = [variables[p] for p in pos]
    joint = states_of(variables)
    rows = []
    for cell in states_of(sub):
        rows.append((cell, [1 if all(s[p] == c for p, c in zip(pos, cell)) else 0 for s in joint]))
    return rows


def marginal(mass, variables, block):
    return {cell: sum((m for m, hit in zip(mass, ind) if hit), Fraction(0))
            for cell, ind in block_rows(variables, block)}


def dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def entropy(mass) -> float:
    return -sum(float(m) * math.log(float(m)) for m in mass if m > 0)


def violations(rows, mass, tol=None):
    """Constraint rows (coeffs, rel, rhs) that ``mass`` breaks, plus the simplex.

    With ``tol`` None the test is exact; otherwise equalities and inequalities
    may be off by ``tol`` (float maxent output).
    """
    out = []
    slack = 0 if tol is None else tol
    if any(m < 0 for m in mass):
        out.append("negative mass")
    total = sum(mass)
    if (total != 1) if tol is None else abs(total - 1) > slack:
        out.append(f"masses sum to {total}")
    for i, (coeffs, rel, rhs) in enumerate(rows):
        lhs = sum((c * m for c, m in zip(coeffs, mass) if c), Fraction(0) if tol is None else 0.0)
        if tol is not None:
            rhs = float(rhs)
        ok = (abs(lhs - rhs) <= slack if rel == "=" else
              lhs <= rhs + slack if rel == "<=" else lhs >= rhs - slack)
        if not ok:
            out.append(f"row {i} ({rel} {rhs}) has lhs {lhs}")
    return out


def parse_mass(doc: dict, states) -> list[Fraction] | None:
    """A witness/distribution keyed by state key, in joint-state order."""
    try:
        return [Fraction(doc[key(s)]) for s in states]
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return None


def marginal_model_rows(variables, tables):
    rows = []
    for block, table in tables:
        for cell, ind in block_rows(variables, block):
            rows.append((ind, "=", table[cell]))
    return rows


def cycle_blocks(names):
    return [tuple(n for n in names if n in (a, b))
            for a, b in zip(names, names[1:] + names[:1])]


def chain_blocks(names):
    return [(a, b) for a, b in zip(names, names[1:])]


def utilities(rng, actions, n_states):
    return [[rng.randint(-10, 10) for _ in range(n_states)] for _ in actions]


def utility_doc(actions, rows, states):
    return {a: {key(s): str(u) for s, u in zip(states, row)} for a, row in zip(actions, rows)}


class Case:
    """One generated request: its input document plus the oracle data."""

    def __init__(self, index, doc, **data):
        self.index = index
        self.doc = doc
        self.data = data
        self.path = None  # problem file, for CLI workloads
        self.args = None  # library arguments, for library workloads

    def input_bytes(self) -> bytes:
        # insertion order: it is the declared variable order
        return json.dumps(self.doc).encode()


# --------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    why = ""
    command = None  # CLI subcommand; None for library workloads

    def rng(self, seed, i) -> random.Random:
        return random.Random(f"{self.name}/{seed}/{i}")

    def make(self, seed, i) -> Case:
        raise NotImplementedError

    def prepare(self, case: Case, workdir, credal) -> None:
        case.path = str(workdir / f"p{case.index}.json")
        with open(case.path, "wb") as fh:
            fh.write(case.input_bytes())

    def request(self, case: Case, credal):
        """The timed request.  Returns the raw answer."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = credal.cli.main([self.command, case.path, "--format", "json"])
        return code, buf.getvalue()

    def answer(self, raw):
        """Raw answer to a parsed document; raises ValueError if unusable."""
        code, text = raw
        if code != 0:
            raise ValueError(f"exit code {code}")
        return json.loads(text)

    def check(self, case: Case, ans) -> list[str]:
        raise NotImplementedError

    def digest_view(self, case: Case, ans):
        raise NotImplementedError

    def plants(self, case: Case, ans):
        """Planted wrong answers: (label, wrong answer, expected failure text)."""
        raise NotImplementedError


def _interval_checks(case, ans, context):
    """Checks shared by both utility-interval workloads.

    ``context(witness, utility row)`` gives the witness's joint states, the
    rows of K over them, the utility per joint state and the mass document.
    """
    errs = []
    d = case.data
    got = ans.get("intervals") if isinstance(ans, dict) else None
    if not isinstance(got, list) or [iv.get("action") for iv in got] != d["actions"]:
        return ["intervals missing or in the wrong action order"]
    for iv, util, eu0 in zip(got, d["utils"], d["eu_p0"]):
        a = iv["action"]
        try:
            lo, hi = Fraction(iv["lo"]), Fraction(iv["hi"])
        except (KeyError, ValueError, ZeroDivisionError):
            errs.append(f"{a}: unreadable lo/hi")
            continue
        if not lo <= eu0 <= hi:
            errs.append(f"{a}: EU(p0) = {eu0} not in [{lo}, {hi}]")
        for side, value in (("lo", lo), ("hi", hi)):
            ctx = context(iv.get(f"{side}_witness"), util)
            w = parse_mass(ctx[3], ctx[0]) if ctx else None
            if w is None:
                errs.append(f"{a}: {side} witness unreadable")
                continue
            states, rows, w_util, _ = ctx
            bad = violations(rows, w)
            if bad:
                errs.append(f"{a}: {side} witness not in K: {bad[0]}")
            if dot(w_util, w) != value:
                errs.append(f"{a}: {side} witness gives {dot(w_util, w)}, not {side} = {value}")
    return errs


def _plant_intervals(ans, mass_of):
    """A perturbed lo and a witness moved out of K."""
    wrong_lo = json.loads(json.dumps(ans))
    iv = wrong_lo["intervals"][0]
    iv["lo"] = str(Fraction(iv["lo"]) - Fraction(1, 1000))
    moved = json.loads(json.dumps(ans))
    w = mass_of(moved["intervals"][0]["hi_witness"])
    # move half the largest mass onto another state: the simplex still holds,
    # a marginal equality does not
    big = max(w, key=lambda s: Fraction(w[s]))
    other = next(s for s in w if s != big)
    half = Fraction(w[big]) / 2
    w[big] = str(Fraction(w[big]) - half)
    w[other] = str(Fraction(w[other]) + half)
    return [("perturbed lo", wrong_lo, "witness gives"),
            ("infeasible witness", moved, "not in K")]


class MarginalIntervals(Workload):
    name = "marginal_intervals"
    why = ("credal intervals on cyclic binary-pairwise marginal models: all-equality rows, "
           "2|A|+1 LPs per problem on one K, so phase one repeats; LP warm starts and row caching show")
    command = "intervals"
    # (cycle length, actions): 8 and 16 states, 3 or 4 actions
    MIX = [(3, 3), (4, 3), (4, 3), (4, 3), (4, 4)]

    def make(self, seed, i):
        rng = self.rng(seed, i)
        k, m = self.MIX[i % len(self.MIX)]
        names = [f"X{j + 1}" for j in range(k)]
        variables = [(n, BINARY) for n in names]
        states = states_of(variables)
        p0 = random_dist(rng, len(states))
        blocks = cycle_blocks(names)
        tables = [(b, marginal(p0, variables, b)) for b in blocks]
        actions = [f"a{j + 1}" for j in range(m)]
        utils = utilities(rng, actions, len(states))
        doc = {
            "variables": {n: list(v) for n, v in variables},
            "actions": actions,
            "utilities": utility_doc(actions, utils, states),
            "constraints": {"marginals": [
                {"block": list(b), "table": {key(c): str(t[c]) for c in t}} for b, t in tables
            ]},
        }
        return Case(i, doc, variables=variables, states=states, p0=p0, tables=tables,
                    actions=actions, utils=utils, eu_p0=[dot(u, p0) for u in utils])

    def check(self, case, ans):
        d = case.data
        rows = marginal_model_rows(d["variables"], d["tables"])
        return _interval_checks(case, ans, lambda w, util: (d["states"], rows, util, w))

    def digest_view(self, case, ans):
        return [[iv["action"], iv["lo"], iv["hi"]] for iv in ans["intervals"]]

    def plants(self, case, ans):
        return _plant_intervals(ans, lambda w: w)


class IntervalAdmissible(Workload):
    name = "interval_admissible"
    why = ("credal admissible on interval, ordering and linear sections (4-8 states): all <= rows "
           "incl. vacuous [0,1] rows plus E-admissibility margins; a slack-basis start or presolve shows here")
    command = "admissible"
    # (variable shape, actions, sections beside intervals): 4-8 states, 3-4 actions
    MIX = [((2, 2), 4, ("linear",)),
           ((5,), 3, ("ordering", "linear")),
           ((5,), 3, ("ordering", "linear")),
           ((5,), 3, ("ordering", "linear")),
           ((8,), 3, ("ordering",)),
           ((8,), 3, ("ordering",))]

    def make(self, seed, i):
        rng = self.rng(seed, i)
        shape, m, sections = self.MIX[i % len(self.MIX)]
        if len(shape) == 1:
            variables = [("S", tuple(f"s{j + 1}" for j in range(shape[0])))]
        else:
            variables = [("A", tuple(f"a{j + 1}" for j in range(shape[0]))),
                         ("B", tuple(f"b{j + 1}" for j in range(shape[1])))]
        states = states_of(variables)
        n = len(states)
        p0 = random_dist(rng, n)
        rows, cons = [], {}
        steps = [Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)]
        bounded = sorted(rng.sample(range(n), (3 * n + 3) // 4))
        cons["intervals"] = {}
        for j in bounded:
            lo = max(Fraction(0), p0[j] - rng.choice(steps))
            hi = min(Fraction(1), p0[j] + rng.choice(steps))
            cons["intervals"][key(states[j])] = [str(lo), str(hi)]
            unit = [0] * n
            unit[j] = 1
            rows += [(unit, ">=", lo), (unit, "<=", hi)]
        if "ordering" in sections:
            chain = sorted(rng.sample(range(n), 4), key=lambda j: -p0[j])
            cons["ordering"] = [key(states[j]) for j in chain]
            for a, b in zip(chain, chain[1:]):
                coeffs = [0] * n
                coeffs[a], coeffs[b] = 1, -1
                rows.append((coeffs, ">=", Fraction(0)))
        if "linear" in sections:
            cons["linear"] = []
            for rel in ("<=", ">="):
                coeffs = [0] * n
                for j in rng.sample(range(n), n // 2 + 1):
                    coeffs[j] = rng.choice([-3, -2, -1, 1, 2, 3])
                slack = rng.choice(steps[1:])
                rhs = dot(coeffs, p0) + (slack if rel == "<=" else -slack)
                cons["linear"].append({
                    "coefficients": {key(states[j]): str(c) for j, c in enumerate(coeffs) if c},
                    "relation": rel, "rhs": str(rhs)})
                rows.append((coeffs, rel, rhs))
        actions = [f"d{j + 1}" for j in range(m)]
        utils = utilities(rng, actions, n)
        doc = {
            "variables": {name: list(v) for name, v in variables},
            "actions": actions,
            "utilities": utility_doc(actions, utils, states),
            "constraints": cons,
        }
        eu0 = [dot(u, p0) for u in utils]
        best = [a for a, e in zip(actions, eu0) if e == max(eu0)]
        return Case(i, doc, states=states, rows=rows, p0=p0, actions=actions, utils=utils,
                    best_at_p0=best)

    def check(self, case, ans):
        d = case.data
        got = ans.get("e_admissible") if isinstance(ans, dict) else None
        if not isinstance(got, list):
            return ["no e_admissible list"]
        names = [e.get("action") for e in got]
        order = [a for a in d["actions"] if a in names]
        if names != order:
            return [f"admissible actions {names} unknown, repeated or out of order"]
        errs = []
        for e in got:
            w = parse_mass(e.get("witness", {}), d["states"])
            if w is None:
                errs.append(f"{e['action']}: witness unreadable")
                continue
            bad = violations(d["rows"], w)
            if bad:
                errs.append(f"{e['action']}: witness not in K: {bad[0]}")
            eus = [dot(u, w) for u in d["utils"]]
            if eus[d["actions"].index(e["action"])] != max(eus):
                errs.append(f"{e['action']}: not EU-maximal at its witness")
        for a in d["best_at_p0"]:
            if a not in names:
                errs.append(f"{a} is EU-maximal at p0 but was not admitted")
        return errs

    def digest_view(self, case, ans):
        return [e["action"] for e in ans["e_admissible"]]

    def plants(self, case, ans):
        d = case.data
        dropped = {"e_admissible": [e for e in ans["e_admissible"]
                                    if e["action"] != d["best_at_p0"][0]]}
        moved = json.loads(json.dumps(ans))
        w = moved["e_admissible"][0]["witness"]
        # all mass on one state whose upper bound is below one
        capped = next((s for s, (lo, hi) in case.doc["constraints"]["intervals"].items()
                       if Fraction(hi) < 1), None)
        for s in w:
            w[s] = "1" if s == capped else "0"
        if capped is None:
            w[next(iter(w))] = "-1"
        return [("dropped admissible action", dropped, "not admitted"),
                ("infeasible witness", moved, "not in K")]


class MarginalFit(Workload):
    name = "marginal_fit"
    why = ("credal maxent on cyclic models (float IPF continuation) and chain models (exact in one "
           "sweep), 32-64 states: splits IPF time from the consistency LP pre-check")
    command = "maxent"
    # (structure, variables): 32 and 64 states, cyclic and chain
    MIX = [("chain", 5), ("cycle", 5), ("chain", 6), ("cycle", 6), ("chain", 6), ("cycle", 6),
           ("chain", 6)]

    def make(self, seed, i):
        rng = self.rng(seed, i)
        shape, k = self.MIX[i % len(self.MIX)]
        names = [f"X{j + 1}" for j in range(k)]
        variables = [(n, BINARY) for n in names]
        states = states_of(variables)
        p0 = random_dist(rng, len(states))
        blocks = cycle_blocks(names) if shape == "cycle" else chain_blocks(names)
        tables = [(b, marginal(p0, variables, b)) for b in blocks]
        doc = {
            "variables": {n: list(v) for n, v in variables},
            "actions": ["a1"],
            "utilities": {"a1": {key(s): "0" for s in states}},
            "constraints": {"marginals": [
                {"block": list(b), "table": {key(c): str(t[c]) for c in t}} for b, t in tables
            ]},
        }
        return Case(i, doc, variables=variables, states=states, tables=tables,
                    h_p0=entropy(p0))

    def check(self, case, ans):
        d = case.data
        if not isinstance(ans, dict) or not isinstance(ans.get("distribution"), dict):
            return ["no distribution"]
        rows = marginal_model_rows(d["variables"], d["tables"])
        dist = ans["distribution"]
        if ans.get("exact") is True:
            mass = parse_mass(dist, d["states"])
            if mass is None:
                return ["exact masses unreadable"]
            bad = violations(rows, mass)
        else:
            try:
                mass = [float(dist[key(s)]) for s in d["states"]]
                tol = float(ans["residual"]) + 1e-9
            except (KeyError, TypeError, ValueError):
                return ["float masses or residual unreadable"]
            bad = violations(rows, mass, tol)
        errs = [f"tables not reproduced: {bad[0]}"] if bad else []
        h = entropy(mass)
        if h < d["h_p0"] - 1e-9:
            errs.append(f"entropy {h} below H(p0) = {d['h_p0']}")
        return errs

    def digest_view(self, case, ans):
        # float masses depend on the summation order, so only exact ones count
        return [ans["exact"], [ans["distribution"][key(s)] for s in case.data["states"]]
                if ans["exact"] else None]

    def plants(self, case, ans):
        moved = json.loads(json.dumps(ans))
        dist = moved["distribution"]
        first, second = list(dist)[:2]
        if ans["exact"]:
            delta = Fraction(dist[first]) / 2
            dist[first] = str(Fraction(dist[first]) - delta)
            dist[second] = str(Fraction(dist[second]) + delta)
        else:
            delta = float(dist[first]) / 2
            dist[first] = repr(float(dist[first]) - delta)
            dist[second] = repr(float(dist[second]) + delta)
        return [("moved mass", moved, "tables not reproduced")]


class ProjectedReduce(Workload):
    name = "projected_reduce"
    why = ("reduction.projected_utility_intervals on wide models: a 4-variable cycle through a "
           "2-variable target plus 100-200 dangling tree blocks; reduction and a small LP both show")
    # (cycle length, tree blocks, actions)
    MIX = [(4, 100, 2), (4, 150, 2), (4, 150, 2), (4, 150, 2), (4, 200, 3)]

    def make(self, seed, i):
        rng = self.rng(seed, i)
        k, n_tree, m = self.MIX[i % len(self.MIX)]
        cyc = [f"C{j + 1}" for j in range(k)]
        cyc_vars = [(n, BINARY) for n in cyc]
        cyc_states = states_of(cyc_vars)
        p_cyc = random_dist(rng, len(cyc_states))
        one = {n: marginal(p_cyc, cyc_vars, (n,))[("1",)] for n in cyc}  # P(var = 1)
        tables = [(b, marginal(p_cyc, cyc_vars, b)) for b in cycle_blocks(cyc)]
        names = list(cyc)
        for t in range(n_tree):
            child, parent = f"Y{t + 1}", rng.choice(names)
            q = [Fraction(rng.randint(1, 9), 10) for _ in range(2)]  # P(child=1 | parent)
            pp = one[parent]
            table = {}
            for pv, pmass in (("0", 1 - pp), ("1", pp)):
                qq = q[int(pv)]
                table[(pv, "0")] = pmass * (1 - qq)
                table[(pv, "1")] = pmass * qq
            one[child] = table[("0", "1")] + table[("1", "1")]
            tables.append(((parent, child), table))
            names.append(child)
        target = [cyc[0], cyc[k // 2]]
        tgt_vars = [(n, BINARY) for n in target]
        tgt_states = states_of(tgt_vars)
        p_tgt = marginal(p_cyc, cyc_vars, target)
        actions = [f"r{j + 1}" for j in range(m)]
        utils = utilities(rng, actions, len(tgt_states))
        doc = {
            "variables": {n: list(BINARY) for n in names},
            "actions": actions,
            "utilities": utility_doc(actions, utils, tgt_states),
            "tables": [{"block": list(b), "table": {key(c): str(v) for c, v in t.items()}}
                       for b, t in tables],
            "target": target,
        }
        return Case(i, doc, names=names, tables=tables, target=target, actions=actions,
                    utils=utils, eu_p0=[dot(u, [p_tgt[s] for s in tgt_states]) for u in utils])

    def prepare(self, case, workdir, credal):
        d = case.data
        space = credal.VariableSpace([(n, BINARY) for n in d["names"]])
        blocks = [frozenset(b) for b, _ in d["tables"]]
        tables = {}
        for (b, t), fb in zip(d["tables"], blocks):
            sub = space.subspace(fb)
            tables[fb] = credal.Distribution(sub, t)
        dp = credal.DecisionProblem(space.subspace(d["target"]), d["actions"], d["utils"])
        case.args = (dp, credal.Model(space, blocks), tables, d["target"])

    def request(self, case, credal):
        return credal.reduction.projected_utility_intervals(*case.args)

    def answer(self, raw):
        out = []
        for iv in raw:
            out.append({"action": iv.action, "lo": str(iv.lo), "hi": str(iv.hi),
                        "lo_witness": _witness_doc(iv.lo_witness),
                        "hi_witness": _witness_doc(iv.hi_witness)})
        return {"intervals": out}

    def check(self, case, ans):
        d = case.data

        def context(w, util):
            # the witness is over the variables the reduced model kept
            names = w.get("variables") if isinstance(w, dict) else None
            if not isinstance(names, list) or not set(d["target"]) <= set(names) <= set(d["names"]):
                return None
            variables = [(n, BINARY) for n in names]
            states = states_of(variables)
            rows = marginal_model_rows(variables, [(b, t) for b, t in d["tables"] if set(b) <= set(names)])
            pos = [names.index(n) for n in d["target"]]
            tgt = states_of([(n, BINARY) for n in d["target"]])
            w_util = [util[tgt.index(tuple(s[p] for p in pos))] for s in states]
            return states, rows, w_util, w.get("mass")

        return _interval_checks(case, ans, context)

    def digest_view(self, case, ans):
        return [[iv["action"], iv["lo"], iv["hi"]] for iv in ans["intervals"]]

    def plants(self, case, ans):
        return _plant_intervals(ans, lambda w: w["mass"])


def _witness_doc(w):
    names = [n for n, _ in w.space.variables]
    return {"variables": names,
            "mass": {key(s): str(m) for s, m in zip(states_of(w.space.variables), w.mass)}}


WORKLOADS = {w.name: w for w in (MarginalIntervals(), IntervalAdmissible(), MarginalFit(),
                                 ProjectedReduce())}

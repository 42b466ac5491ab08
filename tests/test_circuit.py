import itertools
import random
import re

import pytest

from lorcheck import circuit
from lorcheck.circuit import (CircuitError, parse_circuit, encode,
                              add_stuttering, build_miter, simulate,
                              eval_expr, compile_state_predicate, stutter)
from lorcheck.cli import main
from lorcheck.cnf import Clause, evaluate, rename, variables
from lorcheck.sat import solve, implies
from conftest import (STUCK0_SRC, TOGGLE_SRC, DFF_SRC, FORWARD_REF_SRCS,
                      random_system_source, shreg_source, xorreg_source,
                      ring_source, ctr_source, deep_ctr_miter_sources,
                      make_rng)


class TestParsing:
    def test_stuck0_shape(self):
        c = parse_circuit(STUCK0_SRC)
        assert c.inputs == ["x"]
        assert c.latch_names() == ["s"]
        assert c.latches[0].init is False
        assert c.prop == ("not", ("var", "s"))

    def test_comments_and_blank_lines(self):
        c = parse_circuit("# hello\n\ninput x # trailing\nlatch s init * next x\n")
        assert c.latches[0].init is None

    @pytest.mark.parametrize("src", [
        "latch s init 2 next s\n",
        "input x\ninput x\n",                      # duplicate name
        "latch s init 0 next t\n",                 # undeclared
        "signal a = b\nsignal b = a\n",            # combinational cycle
        "input x\nlatch s init 0 next (x AND)\n",  # syntax
        "flurb x\n",                               # unknown directive
        "input x\nprop x\n",                       # property over an input
        "stuttering native\nlatch s init 0 next s\n",  # unknown directive
        *FORWARD_REF_SRCS,
    ])
    def test_rejects(self, src):
        with pytest.raises(CircuitError):
            encode(parse_circuit(src))

    @pytest.mark.parametrize("src", [
        "input x\nlatch s init 0 next s\nprop NOT s\nprop s\n",
        "input x\nsignal a = x\nlatch s init 0 next a\nsignal a = NOT x\n"
        "prop NOT s\n",
        "input x\nlatch s init 0 next s\noutput z = s\noutput z = NOT s\n",
    ], ids=["prop", "signal", "output"])
    def test_repeated_declaration_exits_3(self, src, tmp_path, capfd):
        # the second declaration must not silently replace the first
        f = tmp_path / "twice.scirc"
        f.write_text(src)
        assert main(["check", str(f)]) == 3
        assert re.search(r"^error: line 4: duplicate ",
                         capfd.readouterr().err, re.M)

    @pytest.mark.parametrize("src", [
        # s~1 is the name encode gives the first temporary of signal s
        "input s~1\ninput a\nlatch s init 0 next ((a AND s) OR a)\n"
        "prop NOT s\n",
        "input a\nlatch 0 init 1 next a\nprop 0\n",
        "input AND\nlatch s init 0 next s\nprop NOT s\n",
        "input x\nsignal 1a = x\nlatch s init 0 next s\nprop NOT s\n",
        "input x\nlatch s init 0 next s\noutput z. = s\nprop NOT s\n",
    ])
    def test_declared_name_must_read_as_name(self, src, tmp_path, capfd):
        f = tmp_path / "bad.scirc"
        f.write_text(src)
        assert main(["check", str(f)]) == 3
        assert "not a valid name" in capfd.readouterr().err

    def test_nesting_at_the_bound(self, tmp_path, capfd):
        f = tmp_path / "deep.scirc"
        f.write_text(_nested(circuit.MAX_NESTING))
        assert main(["check", str(f)]) == 0
        assert main(["sec", str(f), str(f)]) == 0
        assert "equivalent\n" in capfd.readouterr().out

    @pytest.mark.parametrize("deep", [
        "(" * 257 + "x" + " AND x)" * 257,
        "NOT " * 257 + "x",
        "(" * 128 + "NOT " * 129 + "x" + " OR x)" * 128,
        "(" * 1200 + "x" + " AND x)" * 1200,
    ], ids=["parens-257", "not-257", "mixed-257", "parens-1200"])
    def test_nesting_past_the_bound(self, tmp_path, capfd, deep):
        f = tmp_path / "deep.scirc"
        f.write_text(_nested(0).replace("signal d = x", "signal d = " + deep))
        assert main(["check", str(f)]) == 3
        assert re.search(r"^error: line 2 .*nested deeper than 256 levels",
                         capfd.readouterr().err, re.M)

    def test_signal_chain_ok(self):
        c = parse_circuit("input x\nsignal a = x\nsignal b = (a OR x)\n"
                          "latch s init 0 next b\n")
        assert set(c.signals) == {"a", "b"}

    def test_output_reads_later_signal(self):
        # encode defines every signal before the first output
        c = parse_circuit("input x\nlatch s init 0 next z\noutput z = (a AND s)\n"
                          "signal a = (x OR s)\nprop NOT s\n")
        exhaustive_encoding_check(encode(c))

    def test_shuffled_signals_rejected_or_encoded(self):
        rng = make_rng(61)
        seen = set()
        for _ in range(40):
            head, sigs, tail = _signal_circuit_lines(rng)
            rng.shuffle(sigs)
            names = [l.split()[1] for l in sigs]
            in_order = all(set(re.findall(r"g\d+", l.split("=")[1]))
                           <= set(names[:i]) for i, l in enumerate(sigs))
            src = "\n".join(head + sigs + tail) + "\n"
            try:
                c = parse_circuit(src)
            except CircuitError:
                assert not in_order, src
                seen.add("rejected")
                continue
            assert in_order, src
            exhaustive_encoding_check(encode(c))
            seen.add("encoded")
        assert seen == {"rejected", "encoded"}


def _signal_circuit_lines(rng):
    """(inputs and latches, signal lines, property line) of a random circuit
    whose signals g<i> read inputs, latches and earlier signals."""
    ins = ["x%d" % i for i in range(rng.randint(1, 2))]
    latches = ["s%d" % i for i in range(rng.randint(1, 3))]
    sigs = ["g%d" % i for i in range(rng.randint(2, 4))]

    def expr(atoms, d=2):
        if d == 0 or rng.random() < 0.35:
            a = rng.choice(atoms)
            return a if rng.random() < 0.75 else "NOT %s" % a
        return "(%s %s %s)" % (expr(atoms, d - 1), rng.choice(["AND", "OR", "XOR"]),
                               expr(atoms, d - 1))

    head = ["input %s" % x for x in ins]
    head += ["latch %s init 0 next %s" % (s, expr(ins + latches + sigs))
             for s in latches]
    lines = ["signal %s = %s" % (g, expr(ins + latches + sigs[:i] + sigs[i - 1:i] * 2))
             for i, g in enumerate(sigs)]
    return head, lines, ["prop NOT %s" % latches[-1]]


def exhaustive_encoding_check(ts):
    """Every (state, input) pair: the CNF transition relation admits exactly
    the successor that gate-level simulation computes."""
    c = ts.circuit
    latch = c.latch_names()
    ins = [v.name for v in ts.input_vars]
    eq_pairs = [(ins.index(a), ins.index(b)) for a, b in c.eq_input_pairs]
    for sbits in itertools.product([False, True], repeat=len(latch)):
        for xbits in itertools.product([False, True], repeat=len(ins)):
            assume = [v if b else -v for v, b in
                      zip(ts.state_ids(0), sbits)]
            assume += [ts.table.get(n, 0).id if b else -ts.table.get(n, 0).id
                       for n, b in zip(ins, xbits)]
            res = solve(ts.trans, assumptions=assume,
                        extra_vars=ts.state_ids(1))
            if any(xbits[a] != xbits[b] for a, b in eq_pairs):
                assert not res
                continue
            _, nxt = simulate(c, dict(zip(latch, sbits)), dict(zip(ins, xbits)))
            assert res
            for v, name in zip(ts.state_ids(1), latch):
                assert res.model[v] == nxt[name]
            # and the wrong successor is excluded
            flip = ts.state_ids(1)[0]
            want = nxt[latch[0]]
            res2 = solve(ts.trans,
                         assumptions=assume + [-flip if want else flip])
            assert not res2


def _nested(levels):
    """A circuit whose property holds, with a signal d = x nested `levels`
    parentheses deep."""
    d = "(" * levels + "x" + " AND x)" * levels
    return ("input x\nsignal d = %s\nlatch s init 0 next (s AND d)\n"
            "output z = s\nprop NOT s\n" % d)


class TestEncoding:
    @pytest.mark.parametrize("src", [STUCK0_SRC, TOGGLE_SRC])
    def test_matches_simulation(self, src):
        exhaustive_encoding_check(encode(parse_circuit(src)))

    def test_random_circuits_match_simulation(self):
        rng = make_rng(60)
        for _ in range(15):
            src = random_system_source(rng, rng.randint(1, 3), rng.randint(1, 2))
            exhaustive_encoding_check(encode(parse_circuit(src)))

    def test_init_and_prop(self):
        ts = encode(parse_circuit(STUCK0_SRC))
        s = ts.state_ids(0)[0]
        assert list(ts.init) == [Clause((-s,))]
        assert list(ts.prop) == [Clause((-s,))]

    def test_free_init_unconstrained(self):
        ts = encode(parse_circuit("input x\nlatch s init * next x\n"))
        assert list(ts.init) == []

    def test_init_has_no_duplicate_clause(self):
        # encode adds I's clauses as they come: one unit per constant-init
        # latch and two distinct binary clauses per state pair, and a latch
        # is in at most one pair, so no clause can come twice
        rng = make_rng(62)
        srcs = ([f(n) for f in (ring_source, ctr_source, shreg_source,
                                xorreg_source) for n in (3, 6)]
                + [xorreg_source(3, inverted=1)]
                + [random_system_source(rng, rng.randint(2, 6),
                                        rng.randint(1, 2), init_zero=False)
                   for _ in range(20)])
        pairs = ([(s, s) for s in srcs] + [deep_ctr_miter_sources(),
                 (shreg_source(8), shreg_source(7)),
                 (xorreg_source(3), xorreg_source(3, inverted=1))])
        circuits = ([parse_circuit(s) for s in srcs]
                    + [build_miter(parse_circuit(a), parse_circuit(b))
                       for a, b in pairs])
        for c in circuits:
            init = list(encode(stutter(c)).init)
            assert len(set(init)) == len(init)


class TestSimulateLanes:
    """simulate_lanes against one simulate per lane."""

    @staticmethod
    def circuits(rng):
        yield parse_circuit("input a\nsignal g = (a AND 1)\n"
                            "latch s init 0 next (NOT g XOR 0)\n"
                            "latch t init 1 next (z XOR s)\n"
                            "output z = (s OR g)\n")
        for _ in range(20):
            n_latch, n_in = rng.randint(1, 4), rng.randint(1, 2)
            c = parse_circuit(random_system_source(rng, n_latch, n_in))
            yield c
            yield stutter(c)
            head, sigs, tail = _signal_circuit_lines(rng)
            yield stutter(parse_circuit("\n".join(head + sigs + tail)))
            n, k = (parse_circuit(random_system_source(rng, n_latch, n_in)
                                  + "output z = (s0 XOR NOT s%d)\n"
                                  % (n_latch - 1)) for _ in "nk")
            yield build_miter(n, k)
            yield stutter(build_miter(n, k))

    @staticmethod
    def check(rng, c, lanes):
        names = c.latch_names() + c.inputs
        rows = [{nm: rng.random() < 0.5 for nm in names}
                for _ in range(lanes)]
        values = {nm: sum(row[nm] << i for i, row in enumerate(rows))
                  for nm in names}
        nxt = circuit.simulate_lanes(c, values, (1 << lanes) - 1)
        assert nxt.keys() == set(c.latch_names())
        assert all(m >> lanes == 0 for m in nxt.values())
        for i, row in enumerate(rows):
            _, want = simulate(c, {s: row[s] for s in c.latch_names()},
                               {x: row[x] for x in c.inputs})
            assert {s: bool(m >> i & 1) for s, m in nxt.items()} == want

    def test_matches_simulate(self):
        rng = make_rng(35)
        for c in self.circuits(rng):
            self.check(rng, c, rng.choice([1, 2, 7, 70]))

    def test_several_hundred_lanes(self):
        rng = make_rng(36)
        for c in itertools.islice(self.circuits(rng), 12):
            self.check(rng, c, 300)

    def test_constants_and_not_stay_inside_full(self):
        # a constant 1 or a NOT sets exactly the lanes of full
        c = parse_circuit("input a\nlatch s init 0 next 1\n"
                          "latch t init 0 next NOT 0\n"
                          "latch u init 1 next (0 AND a)\n"
                          "latch v init 0 next NOT s\n"
                          "latch w init 0 next (a XOR 1)\n")
        values = dict.fromkeys(c.latch_names(), 0)
        values["a"] = 0b101
        assert circuit.simulate_lanes(c, values, 0b111) == {
            "s": 0b111, "t": 0b111, "u": 0, "v": 0b111, "w": 0b010}
        # no lanes at all, as for a trace of step 0 alone
        values["a"] = 0
        assert circuit.simulate_lanes(c, values, 0) == dict.fromkeys(
            c.latch_names(), 0)


FIXTURE_SYSTEMS = ["stuck0", "toggle", "dff_miter"]


class TestNextMap:
    @pytest.mark.parametrize("name", FIXTURE_SYSTEMS)
    def test_round_trip(self, name, request):
        ts = request.getfixturevalue(name)
        ids = ts.state_ids(0)
        mixed = [Clause([v if i % 2 else -v for i, v in enumerate(ids)])]
        for f in (ts.init, ts.prop, mixed):
            assert rename(rename(f, ts.next), ts.prev) == f

    @pytest.mark.parametrize("name", FIXTURE_SYSTEMS)
    def test_bijection_onto_next_state_ids_of_t(self, name, request):
        ts = request.getfixturevalue(name)
        frame1 = {v.id for v in ts.table.by_key.values() if v.frame == 1}
        assert set(ts.next) == set(ts.state_ids(0))
        assert len(set(ts.next.values())) == len(ts.next)
        assert set(ts.next.values()) == frame1 & variables(ts.trans)
        assert list(ts.next.values()) == ts.state_ids(1)
        assert ts.prev == {n: v for v, n in ts.next.items()}

    def test_non_state_literal_raises(self, stuck0):
        ts = stuck0
        before = dict(ts.table.by_key)
        inputs = {v.id for v in ts.input_vars}
        tseitin = variables(ts.trans) - set(ts.next) - set(ts.prev) - inputs
        for v in sorted(inputs) + [min(tseitin)]:
            with pytest.raises(KeyError):
                rename([Clause((-v,))], ts.next)
        with pytest.raises(KeyError):
            rename(ts.prop, ts.prev)
        assert ts.table.by_key == before


class TestStuttering:
    def test_adds_identity_transition(self):
        ts = add_stuttering(encode(parse_circuit(TOGGLE_SRC)))
        stut = ts.stuttering_var.id
        for sval in (False, True):
            s0 = ts.state_ids(0)[0]
            s1 = ts.state_ids(1)[0]
            assume = [s0 if sval else -s0, -stut]
            res = solve(ts.trans, assumptions=assume, extra_vars=[s1])
            assert res and res.model[s1] == sval

    def test_preserves_behavior_when_active(self):
        plain = encode(parse_circuit(TOGGLE_SRC))
        ts = add_stuttering(encode(parse_circuit(TOGGLE_SRC)))
        x = ts.table.get("x", 0).id
        stut = ts.stuttering_var.id
        s0, s1 = ts.state_ids(0)[0], ts.state_ids(1)[0]
        for sv, xv in itertools.product([False, True], repeat=2):
            res = solve(ts.trans, assumptions=[
                s0 if sv else -s0, x if xv else -x, stut], extra_vars=[s1])
            assert res.model[s1] == (sv != xv)

    def test_double_stutter_rejected(self):
        ts = add_stuttering(encode(parse_circuit(TOGGLE_SRC)))
        with pytest.raises(CircuitError):
            add_stuttering(ts)

    def test_name_collision_avoided(self):
        src = "input stut\nlatch s init 0 next stut\nprop NOT s\n"
        ts = add_stuttering(encode(parse_circuit(src)))
        assert ts.stuttering_var.name != "stut"


class TestMiter:
    def test_dff_miter_shape(self):
        m = build_miter(parse_circuit(DFF_SRC), parse_circuit(DFF_SRC))
        assert m.latch_names() == ["n.s", "k.s"]
        assert m.eq_input_pairs == [("n.x", "k.x")]
        assert m.state_pairs == [("n.s", "k.s")]
        ts = encode(m)
        assert len(ts.interface) == 2

    def test_property_flags_output_difference(self):
        m = build_miter(parse_circuit(DFF_SRC), parse_circuit(DFF_SRC))
        ts = encode(m)
        sn, sk = ts.state_ids(0)
        assert evaluate(ts.prop, {sn: True, sk: True}) is True
        assert evaluate(ts.prop, {sn: True, sk: False}) is False

    def test_equal_inputs_enforced(self):
        m = build_miter(parse_circuit(DFF_SRC), parse_circuit(DFF_SRC))
        ts = encode(m)
        xn = ts.table.get("n.x", 0).id
        xk = ts.table.get("k.x", 0).id
        assert not solve(ts.trans, assumptions=[xn, -xk])

    def test_state_pairs_follow_declared_inits(self):
        def circ(*inits):
            return parse_circuit("input x\n" + "".join(
                "latch s%d init %s next s%d\n" % (i, v, i)
                for i, v in enumerate(inits)) + "output z = s0\n")
        m = build_miter(circ("0", "0", "1", "*", "*"),
                        circ("0", "*", "0", "1", "*"))
        # pairing s1 or s3 would force the free latch to the other's
        # constant; inits 1 and 0 conflict, so pairing s2 would leave no
        # initial state
        assert m.state_pairs == [("n.s0", "k.s0"), ("n.s4", "k.s4")]
        assert solve(encode(m).init)

    def test_interface_positions(self):
        ts = add_stuttering(encode(build_miter(parse_circuit(DFF_SRC),
                                               parse_circuit(DFF_SRC))))
        a, b = ts.table.get("n.x", 0).id, ts.table.get("k.x", 0).id
        assert [ts.trans[i] for i in ts.interface] == [
            Clause((a, -b)), Clause((-a, b))]
        assert encode(parse_circuit(DFF_SRC)).interface is None
        assert add_stuttering(encode(parse_circuit(DFF_SRC))).interface is None

    def test_input_free_miter_is_marked(self):
        ring = parse_circuit("latch a init 1 next b\nlatch b init 0 next a\n"
                             "output z = a\n")
        assert encode(stutter(build_miter(ring, ring))).interface == ()

    def test_thousand_output_miter_encodes(self):
        c = parse_circuit(xorreg_source(1000))
        ts = encode(stutter(build_miter(c, c)))
        # two clauses per output pair: n.si = k.si
        assert len(ts.prop) == 2000

    def test_diff_tree_is_balanced(self):
        c = parse_circuit(xorreg_source(7))
        m = build_miter(c, c)

        def shape(e):
            if e[0] != "or":
                return (0, 0)
            (d1, n1), (d2, n2) = shape(e[1]), shape(e[2])
            return (1 + max(d1, d2), 1 + n1 + n2)
        assert shape(m.outputs["diff"]) == (3, 6)
        # P keeps the clause order of a left-deep chain of ORs
        chain = None
        for i in range(7):
            x = ("xor", ("var", "n.z%d" % i), ("var", "k.z%d" % i))
            chain = x if chain is None else ("or", chain, x)
        ts = encode(m)
        m.outputs["diff"] = chain
        assert ts.prop == compile_state_predicate(m.prop, m, ts.table)

    def test_arity_mismatch(self):
        two_in = parse_circuit("input a\ninput b\nlatch s init 0 next a\n"
                               "output z = s\n")
        with pytest.raises(CircuitError):
            build_miter(parse_circuit(DFF_SRC), two_in)

    def test_equality_invariant_is_inductive(self):
        m = build_miter(parse_circuit(DFF_SRC), parse_circuit(DFF_SRC))
        ts = encode(m)
        sn, sk = ts.state_ids(0)
        eq = [Clause((sn, -sk)), Clause((-sn, sk))]
        assert implies(eq + ts.trans, rename(eq, ts.next))


def _ring(n, k):
    """One-hot token ring; stages 0 and k never both hold the token."""
    lines = ["latch s0 init 1 next s%d" % (n - 1)]
    lines += ["latch s%d init 0 next s%d" % (i, i - 1) for i in range(1, n)]
    return "\n".join(lines) + "\nprop NOT (s0 AND s%d)\n" % k


def _counter(n):
    """n-bit counter enabled by input en, with a carry chain of signals."""
    lines = ["input en", "latch c0 init 0 next (c0 XOR en)"]
    carry = "en"
    for i in range(1, n):
        lines.append("signal k%d = (%s AND c%d)" % (i, carry, i - 1))
        carry = "k%d" % i
        lines.append("latch c%d init 0 next (c%d XOR %s)" % (i, i, carry))
    return "\n".join(lines) + "\nprop NOT c%d\n" % (n - 1)


class TestStatePredicate:
    def test_through_signals(self):
        c = parse_circuit("input x\nlatch a init 0 next x\n"
                          "latch b init 0 next x\nsignal both = (a AND b)\n"
                          "prop NOT both\n")
        ts = encode(c)
        va, vb = ts.state_ids(0)
        f = ts.prop
        assert evaluate(f, {va: True, vb: True}) is False
        assert evaluate(f, {va: True, vb: False}) is True

    def test_input_dependence_rejected(self):
        c = parse_circuit("input x\nlatch s init 0 next x\nsignal bad = (s AND x)\n")
        with pytest.raises(CircuitError):
            compile_state_predicate(("var", "bad"), c, encode(c).table)

    def test_input_inside_one_conjunct_rejected(self):
        c = parse_circuit("input x\nlatch a init 0 next x\nlatch b init 0 next x\n"
                          "signal g = (b OR NOT (a AND x))\n"
                          "prop NOT (NOT a OR NOT g)\n")
        with pytest.raises(CircuitError, match="input 'x'"):
            encode(c)

    @pytest.mark.parametrize("n", [17, 24, 25])
    def test_wide_conjunct_exits_3(self, n, tmp_path, capfd, monkeypatch):
        # parity of n latches: 2^(n-1) falsifying states, so the cap must
        # hold before any truth table is built
        def no_tables(names):
            raise AssertionError("truth tables built for %d latches" % len(names))
        monkeypatch.setattr(circuit, "_latch_tables", no_tables)
        f = tmp_path / "wide.scirc"
        f.write_text("input x\n" + "".join("latch s%d init 0 next x\n" % i
                                           for i in range(n))
                     + "prop NOT " + _chain("XOR", n) + "\n")
        assert main(["check", str(f)]) == 3
        assert "%d latches" % n in capfd.readouterr().err

    def test_wide_conjunction_splits(self):
        n = 30
        ts = encode(parse_circuit(
            "input x\n" + "".join("latch s%d init 0 next x\n" % i
                                  for i in range(n))
            + "prop (NOT " + _chain("OR", n) + " AND 1)\n"))
        assert list(ts.prop) == [Clause([-v]) for v in ts.state_ids(0)]

    def test_xorreg16_miter(self):
        ts = encode(build_miter(parse_circuit(xorreg_source(16)),
                                parse_circuit(xorreg_source(16))))
        ids = ts.state_ids(0)
        assert len(ids) == 32
        assert list(ts.prop) == [Clause(c) for i in range(16)
                                 for c in ([ids[i], -ids[i + 16]],
                                           [-ids[i], ids[i + 16]])]

    def test_deep_chain_evaluates_each_signal_once(self, monkeypatch):
        # g_i equals g_(i-1), but read twice, so a walk that expands signals
        # into a tree evaluates g_1 2^29 times
        depth = 30
        src = "input x\nlatch r init 0 next x\nlatch s init 0 next x\nsignal g0 = r\n"
        src += "".join("signal g%d = (g%d AND (s OR g%d))\n" % (i, i - 1, i - 1)
                       for i in range(1, depth + 1))
        c = parse_circuit(src + "prop NOT g%d\n" % depth)
        evaluated = []
        table = circuit._table

        def counted(e, *args):
            evaluated.append(e)
            return table(e, *args)
        monkeypatch.setattr(circuit, "_table", counted)
        ts = encode(c)
        r, s = ts.state_ids(0)
        assert list(ts.prop) == [Clause([-r, s]), Clause([-r, -s])]
        for name, e in c.signals.items():
            assert sum(x is e for x in evaluated) == 1, name
        assert len(evaluated) < 6 * (depth + 1)

    def test_shared_conjunction_split_once(self):
        depth = 40
        src = "input x\nlatch r init 0 next x\nsignal g0 = r\n"
        src += "".join("signal g%d = (g%d AND g%d)\n" % (i, i - 1, i - 1)
                       for i in range(1, depth + 1))
        ts = encode(parse_circuit(src + "prop g%d\n" % depth))
        assert list(ts.prop) == [Clause([ts.state_ids(0)[0]])]


def _chain(op, n):
    """(((s0 op s1) op s2) ... op s(n-1))"""
    e = "s0"
    for i in range(1, n):
        e = "(%s %s s%d)" % (e, op, i)
    return e


def _names(e):
    if e[0] == "var":
        return {e[1]}
    return set().union(*(_names(a) for a in e[1:] if isinstance(a, tuple)))


def _prop_value(c, state):
    """The property in a state, by gate-level simulation."""
    env, _ = simulate(c, state, dict.fromkeys(c.inputs, False))
    return eval_expr(c.prop, env)


def enumerated_prop(c, table):
    """Reference compiler: one longest-falsified clause per falsifying
    assignment to the latches the property reads, first latch most
    significant."""
    defs = dict(c.signals)
    defs.update(c.outputs)
    reads, todo = set(), [c.prop]
    while todo:
        for n in _names(todo.pop()) - reads:
            reads.add(n)
            if n in defs:
                todo.append(defs[n])
    names = [l for l in c.latch_names() if l in reads]
    clauses = []
    for bits in itertools.product([False, True], repeat=len(names)):
        state = dict.fromkeys(c.latch_names(), False)
        state.update(zip(names, bits))
        if not _prop_value(c, state):
            clauses.append(Clause([-table.get(n, 0).id if b else table.get(n, 0).id
                                   for n, b in zip(names, bits)]))
    return clauses


def _random_prop_source(rng):
    """Up to 10 latches, signals and outputs that read earlier ones several
    times, and a property over them whose top is often a conjunction."""
    latches = ["s%d" % i for i in range(rng.randint(1, 10))]
    lines = ["input x"] + ["latch %s init 0 next x" % s for s in latches]
    atoms = list(latches)

    def expr(d):
        if d == 0 or rng.random() < 0.2:
            a = rng.choice(atoms + ["0", "1"] if rng.random() < 0.05 else atoms)
            return a if rng.random() < 0.7 else "NOT %s" % a
        return "(%s %s %s)" % (expr(d - 1), rng.choice(["AND", "OR", "XOR"]),
                               expr(d - 1))
    n_sig = rng.randint(2, 8)
    for i in range(n_sig):
        # encode defines every signal before the first output
        kind = "signal" if i < n_sig - 2 else "output"
        lines.append("%s g%d = %s" % (kind, i, expr(3)))
        atoms += ["g%d" % i] * 3
    ops = ["AND", "AND", "OR", "XOR"]
    top = expr(1)
    for _ in range(rng.randint(0, 4)):
        top = "(%s %s %s)" % (top, rng.choice(ops), expr(2))
    lines.append("prop " + ("NOT " if rng.random() < 0.5 else "") + top)
    return "\n".join(lines) + "\n"


class TestCompiledProperty:
    def test_equivalent_to_enumeration(self):
        rng = make_rng(62)
        for _ in range(120):
            src = _random_prop_source(rng)
            c = parse_circuit(src)
            ts = encode(c)
            names = c.latch_names()
            for bits in itertools.product([False, True], repeat=len(names)):
                state = dict(zip(names, bits))
                got = evaluate(ts.prop, dict(zip(ts.state_ids(0), bits)))
                assert got is _prop_value(c, state), (src, state)

    @pytest.mark.parametrize("src", [_ring(n, k) for n in range(3, 8)
                                     for k in range(1, n // 2 + 1)]
                             + [_counter(n) for n in range(2, 6)])
    def test_same_clauses_as_enumeration(self, src):
        c = parse_circuit(src)
        ts = add_stuttering(encode(c))
        assert ts.prop == enumerated_prop(ts.circuit, ts.table)

    def test_random_systems_same_clauses(self):
        rng = make_rng(63)
        for _ in range(40):
            src = random_system_source(rng, rng.randint(1, 6), rng.randint(1, 2),
                                       init_zero=False)
            ts = encode(parse_circuit(src))
            assert ts.prop == enumerated_prop(ts.circuit, ts.table), src

    @pytest.mark.parametrize("n, m", [(n, n) for n in range(1, 9)]
                             + [(n, n - 1) for n in range(2, 9)])
    def test_shreg_miters_same_clauses(self, n, m):
        ts = encode(build_miter(parse_circuit(shreg_source(n)),
                                parse_circuit(shreg_source(m))))
        assert ts.prop == enumerated_prop(ts.circuit, ts.table)

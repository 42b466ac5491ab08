import itertools
import random
import re

import pytest

from lorcheck.circuit import (CircuitError, parse_circuit, encode,
                              add_stuttering, build_miter, simulate,
                              compile_state_predicate)
from lorcheck.cnf import Cnf, Clause, evaluate
from lorcheck.sat import solve, implies
from conftest import (STUCK0_SRC, TOGGLE_SRC, DFF_SRC, FORWARD_REF_SRCS,
                      random_system_source, make_rng)


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

    def test_frame_instantiation(self):
        ts = encode(parse_circuit(STUCK0_SRC))
        f3 = ts.frame(3)
        frames = {ts.table.lookup(v).frame for v in f3.variables()}
        assert frames == {3, 4}
        with pytest.raises(ValueError):
            ts.frame(-1)


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
        assert sum(1 for c in ts.trans if c.tag == "interface") == 2

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

    def test_arity_mismatch(self):
        two_in = parse_circuit("input a\ninput b\nlatch s init 0 next a\n"
                               "output z = s\n")
        with pytest.raises(CircuitError):
            build_miter(parse_circuit(DFF_SRC), two_in)

    def test_equality_invariant_is_inductive(self):
        m = build_miter(parse_circuit(DFF_SRC), parse_circuit(DFF_SRC))
        ts = encode(m)
        sn, sk = ts.state_ids(0)
        eq = Cnf([Clause((sn, -sk)), Clause((-sn, sk))])
        from lorcheck.cnf import rename_frame
        eq1 = rename_frame(eq, ts.table, {0: 1})
        assert implies(eq + ts.trans, eq1)


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

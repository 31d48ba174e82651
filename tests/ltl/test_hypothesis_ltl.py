"""Property-based tests (hypothesis) for the LTL stack."""

import gc

import hypothesis.strategies as st
from buchi_oracle import disagreements
from hypothesis import example, given, settings
from lasso_semantics import evaluate_lasso

from repro.ltl import (
    Verdict,
    all_assignments,
    build_monitor,
    intern_formula,
    intern_table_size,
    minimize_letters,
    mk_and,
    mk_not,
    mk_or,
    mk_release,
    mk_until,
    parse,
    to_nnf,
)
from repro.ltl.ast import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    FalseConst,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TrueConst,
    Until,
    str_key,
)
from repro.ltl.progression import (
    _formula_verdict,
    build_progression_machine,
    canonicalize,
    progress,
)

ATOMS = ("p", "q", "r")


def formulas(max_depth=3):
    """Hypothesis strategy generating random LTL formulas over ATOMS,
    ``true`` and ``false``, with every operator of the grammar."""
    leaves = st.sampled_from([Atom(a) for a in ATOMS] + [TRUE, FALSE])

    def extend(children):
        unary = st.builds(
            lambda op, f: op(f),
            st.sampled_from([Not, Next, Eventually, Always]),
            children,
        )
        binary = st.builds(
            lambda op, f, g: op(f, g),
            st.sampled_from([And, Or, Implies, Iff, Until, Release]),
            children,
            children,
        )
        return st.one_of(unary, binary)

    return st.recursive(leaves, extend, max_leaves=6)


letters_strategy = st.frozensets(st.sampled_from(ATOMS))
traces = st.lists(letters_strategy, min_size=0, max_size=4)
loops = st.lists(letters_strategy, min_size=1, max_size=3)


class TestRewritingProperties:
    @given(formulas(), traces, loops)
    @settings(max_examples=150, deadline=None)
    def test_nnf_preserves_lasso_semantics(self, formula, prefix, loop):
        assert evaluate_lasso(formula, prefix, loop) == evaluate_lasso(
            to_nnf(formula), prefix, loop
        )

    @given(formulas(), traces, loops)
    @settings(max_examples=150, deadline=None)
    def test_the_tableau_input_is_nnf_and_preserves_lasso_semantics(
        self, formula, prefix, loop
    ):
        # what ``buchi._tableau`` expands: canonical form keeps NNF
        normal = canonicalize(to_nnf(formula))
        for node in normal.walk():
            assert isinstance(
                node, (TrueConst, FalseConst, Atom, Not, And, Or, Next, Until, Release)
            )
            assert not isinstance(node, Not) or isinstance(node.operand, Atom)
        assert evaluate_lasso(formula, prefix, loop) == evaluate_lasso(
            normal, prefix, loop
        )

    @given(formulas(), traces, loops)
    @settings(max_examples=100, deadline=None)
    def test_negation_flips_satisfaction(self, formula, prefix, loop):
        assert evaluate_lasso(formula, prefix, loop) != evaluate_lasso(
            Not(formula), prefix, loop
        )


class TestMonitorProperties:
    @given(formulas(), traces, loops)
    @settings(max_examples=60, deadline=None)
    def test_top_verdict_implies_all_extensions_satisfy(self, formula, prefix, loop):
        """Soundness of ⊤/⊥: a conclusive verdict on a finite trace is
        respected by every (sampled) infinite extension."""
        monitor = build_monitor(formula, atoms=ATOMS)
        verdict = monitor.verdict_of(prefix)
        holds = evaluate_lasso(formula, prefix, loop)
        if verdict is Verdict.TOP:
            assert holds
        elif verdict is Verdict.BOTTOM:
            assert not holds

    @given(formulas(), traces)
    @settings(max_examples=60, deadline=None)
    def test_final_verdicts_are_stable(self, formula, trace):
        monitor = build_monitor(formula, atoms=ATOMS)
        state = monitor.initial_state
        seen_final = None
        for letter in trace:
            state = monitor.step(state, letter)
            verdict = monitor.verdict(state)
            if seen_final is not None:
                assert verdict is seen_final
            elif verdict.is_final:
                seen_final = verdict

    @given(formulas(), traces)
    @settings(max_examples=40, deadline=None)
    def test_firing_conjunctive_transitions_agree_on_target(self, formula, trace):
        monitor = build_monitor(formula, atoms=ATOMS)
        state = monitor.initial_state
        for letter in trace:
            candidates = [
                t
                for t in monitor.transitions
                if t.source == state
                and all((atom in letter) == required for atom, required in t.guard.items())
            ]
            assert len(candidates) >= 1
            assert {t.target for t in candidates} == {monitor.step(state, letter)}
            state = candidates[0].target


def _fresh(formula):
    """A structurally equal but non-interned copy of *formula*.

    Rebuilds the tree through the raw class constructors, bypassing both the
    intern table and the ``mk_*`` canonicalisation — this reconstructs what
    every formula looked like before the hash-consing layer existed.
    """
    if isinstance(formula, TrueConst):
        return TrueConst()
    if isinstance(formula, FalseConst):
        return FalseConst()
    if isinstance(formula, Atom):
        return Atom(formula.name)
    children = [_fresh(child) for child in formula.children]
    return type(formula)(*children)


# -- reference (pre-interning) canonicaliser and progression -----------------
# A faithful reimplementation of the historical string-keyed algorithm, used
# to assert that the hash-consed kernel computes identical automata.


def _ref_flatten(formula, cls):
    if isinstance(formula, cls):
        return _ref_flatten(formula.left, cls) + _ref_flatten(formula.right, cls)
    return [formula]


def _ref_canonicalize(formula):
    if isinstance(formula, (TrueConst, FalseConst, Atom)):
        return formula
    if isinstance(formula, Not):
        inner = _ref_canonicalize(formula.operand)
        if isinstance(inner, TrueConst):
            return FALSE
        if isinstance(inner, FalseConst):
            return TRUE
        if isinstance(inner, Not):
            return inner.operand
        return Not(inner)
    if isinstance(formula, Next):
        return Next(_ref_canonicalize(formula.operand))
    if isinstance(formula, Until):
        return Until(_ref_canonicalize(formula.left), _ref_canonicalize(formula.right))
    if isinstance(formula, Release):
        return Release(_ref_canonicalize(formula.left), _ref_canonicalize(formula.right))
    if isinstance(formula, (And, Or)):
        cls = And if isinstance(formula, And) else Or
        absorbing = FALSE if cls is And else TRUE
        identity = TRUE if cls is And else FALSE
        operands = []
        seen = set()
        for operand in _ref_flatten(formula, cls):
            operand = _ref_canonicalize(operand)
            if operand == absorbing:
                return absorbing
            if operand == identity:
                continue
            for part in _ref_flatten(operand, cls):
                key = str(part)
                if key not in seen:
                    seen.add(key)
                    operands.append(part)
        if not operands:
            return identity
        operands.sort(key=str)
        result = operands[0]
        for operand in operands[1:]:
            result = cls(result, operand)
        return result
    return _ref_canonicalize(to_nnf(formula))


def _ref_progress(formula, letter):
    if isinstance(formula, (TrueConst, FalseConst)):
        return formula
    if isinstance(formula, Atom):
        return TRUE if formula.name in letter else FALSE
    if isinstance(formula, Not):
        inner = formula.operand
        if isinstance(inner, Atom):
            return FALSE if inner.name in letter else TRUE
        return _ref_canonicalize(Not(_ref_progress(inner, letter)))
    if isinstance(formula, And):
        return _ref_canonicalize(
            And(_ref_progress(formula.left, letter), _ref_progress(formula.right, letter))
        )
    if isinstance(formula, Or):
        return _ref_canonicalize(
            Or(_ref_progress(formula.left, letter), _ref_progress(formula.right, letter))
        )
    if isinstance(formula, Next):
        return _ref_canonicalize(formula.operand)
    if isinstance(formula, Until):
        return _ref_canonicalize(
            Or(
                _ref_progress(formula.right, letter),
                And(_ref_progress(formula.left, letter), formula),
            )
        )
    if isinstance(formula, Release):
        return _ref_canonicalize(
            And(
                _ref_progress(formula.right, letter),
                Or(_ref_progress(formula.left, letter), formula),
            )
        )
    return _ref_progress(to_nnf(formula), letter)


def _depth(formula):
    return 1 + max((_depth(child) for child in formula.children), default=0)


def _ref_progression_machine(formula, atoms, max_states, max_depth):
    """String-keyed progression automaton, exactly as built pre-interning.

    Keyed on syntax, progression need not converge (``G p U G q`` nests
    deeper at every step), and the reference algorithm is deliberately
    unmemoized: it raises :class:`RuntimeError` once it has ``max_states``
    states or a state formula nests more than ``max_depth`` levels.
    """
    letters = tuple(all_assignments(atoms))
    initial = _ref_canonicalize(to_nnf(formula))
    index = {str(initial): 0}
    formulas = [initial]
    delta = []
    for current in formulas:
        row = []
        for letter in letters:
            successor = _ref_progress(current, letter)
            key = str(successor)
            if key not in index:
                if len(formulas) >= max_states or _depth(successor) > max_depth:
                    raise RuntimeError("reference construction exceeded its bounds")
                index[key] = len(formulas)
                formulas.append(successor)
            row.append(index[key])
        delta.append(row)
    return formulas, delta


class TestInterning:
    @given(formulas())
    @settings(max_examples=150, deadline=None)
    def test_intern_formula_is_canonical_identity(self, formula):
        interned = intern_formula(formula)
        assert interned == formula
        # structurally equal fresh copies intern to the very same object
        assert intern_formula(_fresh(formula)) is interned
        assert intern_formula(interned) is interned

    @given(formulas())
    @settings(max_examples=150, deadline=None)
    def test_canonicalize_is_idempotent_and_interned(self, formula):
        canonical = canonicalize(formula)
        assert canonicalize(canonical) is canonical
        # the same input always canonicalises to the same object
        assert canonicalize(_fresh(formula)) is canonical

    @given(formulas(), traces, loops)
    @settings(max_examples=100, deadline=None)
    def test_canonicalize_preserves_lasso_semantics(self, formula, prefix, loop):
        assert evaluate_lasso(formula, prefix, loop) == evaluate_lasso(
            canonicalize(to_nnf(formula)), prefix, loop
        )

    @given(formulas())
    @settings(max_examples=150, deadline=None)
    def test_mk_constructors_are_idempotent(self, formula):
        c = canonicalize(to_nnf(formula))
        # conjunction/disjunction with itself collapses to the same object
        assert mk_and(c, c) is c
        assert mk_or(c, c) is c
        # double negation round-trips to the identical node
        assert mk_not(mk_not(c)) is c
        # rebuilding a canonical binary node from its own parts is a no-op
        if isinstance(c, (And, Or)):
            mk = mk_and if isinstance(c, And) else mk_or
            assert mk(c.left, c.right) is c
        if isinstance(c, Until):
            assert mk_until(c.left, c.right) is c
        if isinstance(c, Release):
            assert mk_release(c.left, c.right) is c

    @given(formulas())
    @example(parse("F(q R ((p | q) U F p))"))  # 7 reference states, 6 keys
    @example(parse("G(F !p -> F(q | false))"))  # 4 reference states, 3 keys
    @settings(max_examples=40, deadline=None)
    def test_interned_progression_matches_reference_machine(self, formula):
        # Keyed on the normal form, the machine is a quotient of the
        # syntactic reference: one map from reference states onto its states
        # respects the transitions and the verdicts, and where nothing merges
        # the two machines are the same.  The reference runs only under a cap
        # (it need not converge); every draw is also checked by the oracle.
        assert disagreements([(formula, ATOMS)], limit=300_000)[0] == []
        machine, state_formulas = build_progression_machine(formula, atoms=ATOMS)
        try:
            ref_formulas, ref_delta = _ref_progression_machine(
                formula, ATOMS, max_states=64, max_depth=_depth(formula) + 6
            )
        except RuntimeError:
            return
        rows = [
            [machine.step(state, mask) for mask in machine.columns]
            for state in range(machine.num_states)
        ]
        image, walk = {0: 0}, [0]
        for ref_state in walk:  # grows while it is walked
            for column, ref_target in enumerate(ref_delta[ref_state]):
                target = rows[image[ref_state]][column]
                if ref_target not in image:
                    image[ref_target] = target
                    walk.append(ref_target)
                assert image[ref_target] == target
        assert len(image) == len(ref_formulas)
        assert set(image.values()) == set(range(machine.num_states))
        for ref_state, state in image.items():
            assert _formula_verdict(ref_formulas[ref_state]) is machine.outputs[state]
        if machine.num_states == len(ref_formulas):
            ref_names = [str(f) for f in ref_formulas]
            assert [str_key(f) for f in state_formulas] == ref_names
            assert rows == ref_delta

    @given(formulas(), letters_strategy)
    @settings(max_examples=150, deadline=None)
    def test_progress_memo_is_stable(self, formula, letter):
        first = progress(formula, letter)
        assert progress(formula, letter) is first
        # a structurally equal canonical formula progresses identically
        assert progress(canonicalize(to_nnf(formula)), letter) == _ref_progress(
            _ref_canonicalize(to_nnf(formula)), letter
        )

    def test_intern_table_bounded_under_max_states_guard(self):
        # A progression abandoned by the max_states guard must not leak its
        # intermediate formulas: the intern table holds only weak references,
        # so the working set is reclaimed once the construction unwinds.
        # The atoms are unique to this test — a formula shared with other
        # tests (e.g. a case-study property kept alive by the monitor cache)
        # would legitimately retain its progression cache.
        formula = parse(
            "G((z0 U (z1 & z2 & z3)) & (z4 U (z5 & z6 & z7)))"
        )
        gc.collect()
        before = intern_table_size()
        try:
            build_progression_machine(formula, max_states=3)
            raise AssertionError("expected the max_states guard to trigger")
        except RuntimeError as guard:
            assert "max_states=3" in str(guard)
        del formula
        gc.collect()
        after = intern_table_size()
        # everything the aborted construction interned is collectable; only
        # nodes owned by other live objects (e.g. other tests' caches) remain
        assert after <= before + 5


class TestBoolminProperties:
    @given(st.sets(st.frozensets(st.sampled_from(("a", "b", "c", "d")))))
    @settings(max_examples=200, deadline=None)
    def test_cover_is_exact(self, letters):
        variables = ("a", "b", "c", "d")
        implicants = minimize_letters(letters, variables)
        covered = set()
        for assignment in all_assignments(variables):
            for implicant in implicants:
                if all(
                    (var in assignment) == value for var, value in implicant.items()
                ):
                    covered.add(assignment)
                    break
        assert covered == set(letters)

"""The generic term walks: free variables, capture-avoiding substitution,
the bottom-up rebuild, alpha equality and the spine fold."""

from fordc.terms import (App, AxiomRef, CtorRef, DataRef, FunRef, IdType,
                         JElim, Lam, Pi, Refl, Univ, Var, alpha_eq, free_vars,
                         map_term, spines, subst_term)

x, y, z = Var("x"), Var("y"), Var("z")
A = DataRef("A")


def test_free_vars_through_every_compound_class():
    assert free_vars(App(x, y)) == {"x", "y"}
    assert free_vars(IdType(x, y, z)) == {"x", "y", "z"}
    assert free_vars(JElim(x, y, z)) == {"x", "y", "z"}
    assert free_vars(Lam("x", App(x, y))) == {"y"}
    assert free_vars(Pi("x", A, App(x, z))) == {"z"}
    # the domain lies outside the binder's scope
    assert free_vars(Pi("x", x, x)) == {"x"}
    assert free_vars(App(Univ(0), Refl())) == frozenset()


def test_subst_term_is_simultaneous():
    assert subst_term(App(x, y), {"x": y, "y": x}) == App(y, x)
    assert subst_term(IdType(x, y, z), {"x": y, "y": x}) == IdType(y, x, z)


def test_subst_term_avoids_capture():
    assert subst_term(Lam("y", x), {"x": y}) == Lam("y1", y)
    assert (subst_term(Pi("y", A, App(x, y)), {"x": y})
            == Pi("y1", A, App(y, Var("y1"))))


def test_subst_term_keeps_a_binder_whose_capturing_term_is_not_substituted():
    # `x` is brought by the value of `a`, which the body does not mention
    assert (subst_term(Pi("x", DataRef("Nat"), y), {"a": x, "y": z})
            == Pi("x", DataRef("Nat"), z))


def test_subst_term_substitutes_pi_domain_outside_binder():
    assert subst_term(Pi("x", x, x), {"x": z}) == Pi("x", z, x)
    assert (subst_term(JElim(x, Lam("x", x), x), {"x": z})
            == JElim(z, Lam("x", x), z))


def test_alpha_eq_across_renamed_binders():
    assert alpha_eq(Pi("x", A, App(x, x)), Pi("y", A, App(y, y)))
    assert alpha_eq(Lam("x", Lam("y", App(x, y))),
                    Lam("y", Lam("x", App(y, x))))
    assert not alpha_eq(Lam("x", Lam("y", x)), Lam("x", Lam("y", y)))
    a = CtorRef("A", "a")
    assert alpha_eq(JElim(A, Refl(), a), JElim(A, Refl(), a))


def test_alpha_eq_false_across_classes():
    assert not alpha_eq(App(x, y), IdType(x, y, z))
    assert not alpha_eq(Lam("x", x), Pi("x", A, x))
    assert not alpha_eq(DataRef("f"), FunRef("f"))
    assert not alpha_eq(FunRef("f"), AxiomRef("f"))
    assert not alpha_eq(Univ(0), Univ(1))
    assert not alpha_eq(Lam("x", y), Lam("y", y))


def test_alpha_eq_false_on_a_differing_subterm_before_the_last():
    assert not alpha_eq(App(x, z), App(y, z))
    assert not alpha_eq(IdType(A, x, z), IdType(A, y, z))


def test_map_term_visits_bottom_up_in_field_order():
    seen = []

    def record(u):
        seen.append(u)
        return u

    t = Pi("x", App(x, y), Lam("y", IdType(A, Refl(), JElim(x, y, z))))
    assert map_term(t, record) == t
    j = JElim(x, y, z)
    assert seen == [x, y, App(x, y), A, Refl(), x, y, z, j,
                    IdType(A, Refl(), j), Lam("y", IdType(A, Refl(), j)), t]


def test_map_term_rebuilds_from_fn_results():
    t = Lam("x", App(A, IdType(A, x, A)))
    out = map_term(t, lambda u: DataRef("B") if u == A else u)
    B = DataRef("B")
    assert out == Lam("x", App(B, IdType(B, x, B)))


def test_spines_visit_head_subterms_before_arguments():
    m, b, p = Var("m"), Var("b"), App(Var("f"), y)
    j = JElim(m, b, p)
    assert list(spines(App(j, x))) == [
        (j, [x]), (m, []), (b, []), (Var("f"), [y]), (y, []), (x, [])]
    assert list(spines(Pi("x", A, Lam("y", y)))) == [
        (Pi("x", A, Lam("y", y)), []), (A, []), (Lam("y", y), []), (y, [])]


def _chain(depth, bottom):
    t = bottom
    for _ in range(depth):
        t = App(CtorRef("Nat", "suc"), t)
    return t


def _bottom(t):
    while isinstance(t, App):
        t = t.arg
    return t


def test_walkers_take_a_900_deep_numeral():
    # a normal form this deep occurs: the 30x30 arithmetic theorem
    t = _chain(900, Var("n"))
    assert free_vars(t) == {"n"}
    zero = CtorRef("Nat", "zero")
    assert _bottom(subst_term(t, {"n": zero})) == zero
    assert _bottom(map_term(t, lambda u: u)) == Var("n")
    assert alpha_eq(t, _chain(900, Var("n")))


def test_subst_term_returns_a_node_it_does_not_change():
    # `w` is free nowhere below, so every node comes back as itself
    sub = {"w": z}
    for t in [App(App(FunRef("f"), x), y), Pi("x", A, App(x, y)),
              Lam("x", App(x, y)), IdType(A, x, y), JElim(x, Refl(), y)]:
        assert subst_term(t, sub) is t


def test_subst_term_shares_the_siblings_of_a_changed_argument():
    left, right = App(FunRef("g"), y), IdType(A, y, y)
    t = App(App(App(FunRef("f"), left), x), right)
    out = subst_term(t, {"x": z})
    assert out == App(App(App(FunRef("f"), left), z), right)
    assert out.arg is right and out.fn.fn is t.fn.fn
    assert out.fn.fn.arg is left

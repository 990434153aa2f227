"""Golden tests: every Maple snippet from Section 3.3 of the paper.

These pin the engine to the exact behaviour the paper demonstrates.
"""

from repro.symalg import Polynomial, factor, horner, simplify_modulo, symbols

x, y = symbols("x y")


class TestFactorExpandSnippet:
    """> S := x^2*(x^14+x^15+1);
       > P := expand(S);        P := x^16+x^17+x^2
       > factor(P);             x^2*(x^14+x^15+1)
    """

    def test_expand(self):
        s = x**2*(x**14 + x**15 + 1)
        assert s == x**16 + x**17 + x**2

    def test_factor_inverts_expand(self):
        p = x**16 + x**17 + x**2
        result = factor(p)
        assert result.expand() == p
        assert (Polynomial.variable("x"), 2) in result.factors
        assert (x**14 + x**15 + 1, 1) in result.factors


class TestHornerSnippet:
    """> S := y^2*x + y*x^2 + 4*x*y + x^2 + 2*x;
       > convert(S, 'horner', [x,y]);   (2+(4+y)*y+(y+1)*x)*x
    """

    def test_horner_form(self):
        s = y**2*x + y*x**2 + 4*x*y + x**2 + 2*x
        nested = horner(s, ["x", "y"])
        assert nested.to_polynomial() == s
        # Maple's form costs 3 muls + 4 adds; ours must match that economy.
        assert nested.op_count().muls == 3
        assert nested.op_count().adds == 4
        # The outermost structure is (...) * x.
        assert str(nested).endswith("* x")


class TestSimplifySnippet:
    """> S := x + x^3*y^2 - 2*x*y^3
       > simplify(S, {p = x^2-2*y}, [x,y,p]);   x + y^2*x*p
    """

    def test_simplify(self):
        s = x + x**3*y**2 - 2*x*y**3
        p_rel = x**2 - 2*y
        result = simplify_modulo(s, {"p": p_rel}, ["x", "y", "p"])
        p = Polynomial.variable("p")
        assert result == x + y ** 2 * x * p

    def test_simplify_substitution_is_sound(self):
        """Substituting p = x^2 - 2y back must recover S."""
        s = x + x**3*y**2 - 2*x*y**3
        p_rel = x**2 - 2*y
        result = simplify_modulo(s, {"p": p_rel}, ["x", "y", "p"])
        assert result.substitute({"p": p_rel}) == s


class TestEquationOne:
    """Equation 1: the IMDCT polynomial

        x_i = sum_{k=0}^{n/2-1} y_k cos(pi/(2n) (2i + 1 + n/2)(2k + 1))

    With the cosines precomputed (as the paper notes) this is a linear
    form in the y_k; the symbolic engine must treat the cosine matrix as
    symbolic constants c_{i,k}.
    """

    def test_imdct_polynomial_is_linear_in_inputs(self):
        n = 12
        ys = symbols(" ".join(f"y{k}" for k in range(n // 2)))
        cs = symbols(" ".join(f"c{k}" for k in range(n // 2)))
        x_i = Polynomial.zero()
        for yk, ck in zip(ys, cs):
            x_i = x_i + ck * yk
        for yk in ys:
            assert x_i.degree_in(yk.variables[0]) == 1
        assert x_i.total_degree() == 2  # bilinear in (c, y)

    def test_imdct_row_matches_library_template_via_simplify(self):
        """A row of Eq. 1 collapses to one library symbol under simplify."""
        n = 12
        names_y = [f"y{k}" for k in range(n // 2)]
        names_c = [f"c{k}" for k in range(n // 2)]
        row = Polynomial.zero()
        for cn, yn in zip(names_c, names_y):
            row = row + Polynomial.variable(cn) * Polynomial.variable(yn)
        result = simplify_modulo(row, {"imdct_row": row})
        assert result == Polynomial.variable("imdct_row")

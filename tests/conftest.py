import pytest

from vrg import ExtensionSpec, Poly, VarTable, parse


@pytest.fixture
def xy11() -> VarTable:
    return VarTable(("X", "Y"), (1, 1))


@pytest.fixture
def xy32() -> VarTable:
    return VarTable(("X", "Y"), (3, 2))


@pytest.fixture
def xy12() -> VarTable:
    return VarTable(("X", "Y"), (1, 2))


@pytest.fixture
def cusp_spec(xy32) -> ExtensionSpec:
    return ExtensionSpec(xy32, (parse("X^2+Y^3", xy32), parse("X^2*Y^3", xy32)))


@pytest.fixture
def mixed_spec(xy12) -> ExtensionSpec:
    return ExtensionSpec(xy12, (parse("X^2*Y", xy12), parse("X^2+Y", xy12)))


@pytest.fixture
def sym2_spec(xy11) -> ExtensionSpec:
    return ExtensionSpec(xy11, (parse("X+Y", xy11), parse("X*Y", xy11)))


@pytest.fixture
def break_membership(monkeypatch):
    """``apply(well)`` makes membership of R disagree with the factor pattern
    in analyze: for a mixed spec (``well`` false) the graded solve returns a
    representation; for a well one a pullback picks up a variable after the
    rests are taken, so the product of the pullbacks no longer certifies
    ``D~ = c*S~``."""
    import vrg.analyzer as analyzer_mod

    def apply(well: bool) -> None:
        if not well:
            monkeypatch.setattr(analyzer_mod, "subalgebra_membership", lambda p, spec: p)
            return
        real = analyzer_mod._products

        def scaled(spec, data, pullbacks):
            p, pullback = next(iter(pullbacks.items()))
            return real(spec, data, {**pullbacks, p: pullback * Poly.variable(spec.n, 0)})

        monkeypatch.setattr(analyzer_mod, "_products", scaled)

    return apply

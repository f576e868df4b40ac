import numpy as np
import pytest

from calabilab import functions, parse_function, render_function
from calabilab.errors import ConfigError, DomainError, RangeError
from calabilab.functions import (
    _TAGS,
    _newton_invert,
    affine,
    composed_with_affine,
    constant,
    exponential,
    fsum,
    identity,
    invert,
    log_guarded,
    power,
    scaled,
)

CATALOG = [
    "id",
    "exp",
    "log",
    "const:1",
    "const:-2.5",
    "pow:2",
    "pow:0.5",
    "affine:1:2",
    "scaled:0.5:pow:2",
    "compaff:1:2:exp",
    "sum:id,const:1",
    "scaled:3:sum:exp,pow:2",
]


@pytest.mark.parametrize("spec", CATALOG)
def test_parse_render_roundtrip(spec):
    desc = parse_function(spec)
    assert render_function(desc) == spec  # every CATALOG spec is canonical
    again = parse_function(render_function(desc))
    z = np.array([0.7, 1.3, 2.9])
    assert np.allclose(desc(z), again(z))


def test_catalog_covers_every_tag():
    assert set(_TAGS) == {parse_function(spec).tag for spec in CATALOG}


@pytest.mark.parametrize(
    "alias, short",
    [("identity", "id"), ("exponential", "exp"), ("log_guarded", "log"),
     ("constant:1", "const:1"), ("power:2", "pow:2"), ("ID", "id")],
)
def test_alias_heads_parse_like_short_heads(alias, short):
    assert parse_function(alias) == parse_function(short)


@pytest.mark.parametrize("spec", CATALOG)
def test_derivative_matches_finite_difference(spec):
    desc = parse_function(spec)
    d = desc.derivative()
    z = np.array([0.6, 1.1, 2.4])  # safely inside every catalog domain
    h = 1e-6
    fd = (desc(z + h) - desc(z - h)) / (2.0 * h)
    dv = d(z)
    assert np.abs(dv - fd).max() < 1e-6 * (1.0 + np.abs(fd).max())


# descriptor -> closed-form inverse (None: none in the catalog)
INVERSES = {
    identity(): lambda y: y,
    exponential(): np.log,
    log_guarded(): np.exp,
    power(2): np.sqrt,
    power(0.5): lambda y: y ** 2,
    affine(2.0, -1.0): lambda y: (y + 1.0) / 2.0,
    scaled(0.5, power(2)): lambda y: np.sqrt(2.0 * y),
    composed_with_affine(exponential(), 2.0, 1.0): lambda y: (np.log(y) - 1.0) / 2.0,
    fsum(identity(), identity()): lambda y: y / 2.0,
    fsum(exponential(), identity()): None,
}


@pytest.mark.parametrize("desc", list(INVERSES))
def test_inverse_is_right_inverse(desc):
    exact = INVERSES[desc]
    y = np.array([0.3, 1.0, 4.2])
    start = 1.1 * exact(y) + 0.1 if exact is not None else 1.0
    s = invert(desc, y, start)
    assert np.abs(desc(s) - y).max() < 1e-12
    if exact is not None:
        assert np.abs(s - exact(y)).max() < 1e-12 * (1.0 + np.abs(s).max())


def test_non_invertible_tags_raise():
    # g' = 0 identically: no Newton step exists
    y = np.array([0.5, 2.0])
    for desc in (constant(3.0), affine(0.0, 1.0), power(0)):
        with pytest.raises(RangeError, match="is 0"):
            invert(desc, y, 1.0)


# Per catalog tag: descriptors, each with whether it has a closed-form
# inverse.  Keyed by tag so that a new tag fails the tests below until its
# cases are added.
INVERSE_CASES = {
    "constant": [(constant(3.0), False)],
    "identity": [(identity(), True)],
    "affine": [(affine(2.0, -1.0), True), (affine(-0.3, 4.0), True), (affine(0.0, 1.0), False)],
    "power": [(power(1), True), (power(-1), True), (power(2), False), (power(0.5), False),
              (power(0), False)],
    "exponential": [(exponential(), True)],
    "log_guarded": [(log_guarded(), True)],
    "scaled": [(scaled(0.5, scaled(2.0, power(1))), True), (scaled(-3.0, exponential()), True),
               (scaled(0.0, exponential()), False), (scaled(2.0, power(2)), False)],
    "sum": [(fsum(identity(), identity()), False), (fsum(exponential(), power(2)), False)],
    "composed_with_affine": [
        (composed_with_affine(exponential(), 2.0, 1.0), True),
        (composed_with_affine(log_guarded(), -0.5, 3.0), True),
        (composed_with_affine(scaled(4.0, power(-1)), 1.5, 0.25), True),
        (composed_with_affine(exponential(), 0.0, 1.0), False),
        (composed_with_affine(power(2), 1.0, 0.0), False),
    ],
}
DOMAIN_POINTS = np.array([0.6, 1.1, 2.4])  # safely inside every case's domain


@pytest.mark.parametrize("tag", sorted(_TAGS))
def test_catalog_inverse_is_inverse(tag):
    for desc, invertible in INVERSE_CASES[tag]:
        assert desc.tag == tag
        inverse = desc.inverse()
        assert (inverse is not None) == invertible, desc.render()
        if inverse is None:
            continue
        y = desc(DOMAIN_POINTS)
        s = inverse(y)
        assert np.abs(desc(s) - y).max() <= 1e-14 * np.abs(y).max(), desc.render()
        assert np.abs(s - DOMAIN_POINTS).max() <= 1e-14 * np.abs(DOMAIN_POINTS).max(), desc.render()


@pytest.mark.parametrize("tag", sorted(_TAGS))
def test_closed_form_inverse_agrees_with_newton(tag):
    for desc, invertible in INVERSE_CASES[tag]:
        if not invertible:
            continue
        y = desc(DOMAIN_POINTS)
        closed = invert(desc, y, 1.0)
        newton = _newton_invert(desc, y, 1.0)
        assert np.abs(closed - newton).max() <= 1e-13 * (1.0 + np.abs(newton).max()), desc.render()


def test_sum_without_closed_form_still_inverts():
    desc = parse_function("sum:exp,pow:2")
    assert desc.inverse() is None
    y = desc(DOMAIN_POINTS)
    s = invert(desc, y, 1.0)
    assert np.abs(s - DOMAIN_POINTS).max() < 1e-12


def test_closed_form_inverse_range_errors_name_the_node():
    nodes = np.array([0.25, 0.5, 0.75])
    with pytest.raises(RangeError, match=r"range of exp at node x=0\.5"):
        invert(exponential(), np.array([1.0, 0.0, 2.0]), 0.0, nodes)
    with pytest.raises(RangeError, match=r"range of exp at node x=0\.25"):
        invert(exponential(), np.array([-1.0, 0.0, 2.0]), 0.0, nodes)
    with pytest.raises(RangeError, match=r"range of pow:-1 at node x=0\.75"):
        invert(power(-1), np.array([1.0, 2.0, 0.0]), 1.0, nodes)
    # e^800 overflows: no finite s is returned
    with pytest.raises(RangeError, match="non-finite"):
        invert(log_guarded(), np.array([1.0, 800.0]), 1.0)


def test_invert_range_errors():
    y = np.array([-1.0, 2.0])
    # e^s never reaches -1: the iterates run off to -inf
    with pytest.raises(RangeError):
        invert(exponential(), y, 0.0)
    # sqrt(s) = -1: the first step leaves the domain s > 0
    with pytest.raises(RangeError, match="range"):
        invert(power(0.5), y, 1.0, np.array([0.0, 1.0]))
    # s^2 = -1 has no real root: Newton wanders without settling
    with pytest.raises(RangeError):
        invert(power(2), np.array([-1.0]), 0.7)


def test_domain_errors_carry_location():
    z = np.array([1.0, -2.0])
    nodes = np.array([0.0, 0.5])
    with pytest.raises(DomainError) as exc:
        log_guarded()(z, nodes)
    assert exc.value.node == 0.5
    with pytest.raises(DomainError):
        power(0.5)(z)
    with pytest.raises(DomainError):
        power(-1)(np.array([0.0]))


def test_constant_value_detection():
    assert constant(4.0).constant_value() == 4.0
    assert identity().derivative().constant_value() == 1.0
    assert affine(0.0, 7.0).constant_value() == 7.0
    assert scaled(2.0, constant(3.0)).constant_value() == 6.0
    assert fsum(constant(1.0), constant(2.0)).constant_value() == 3.0
    assert power(0).constant_value() == 1.0
    assert identity().constant_value() is None
    assert exponential().constant_value() is None
    # f = id has constant derivative; f = s^2/2 does not
    assert parse_function("id").derivative().constant_value() == 1.0
    assert parse_function("scaled:0.5:pow:2").derivative().constant_value() is None


@pytest.mark.parametrize("calculus", ["derivative", "inverse"])
def test_memoised_calculus_matches_an_uncached_build(calculus):
    specs = [*CATALOG, "scaled:2:exp", "compaff:2:1:exp", "pow:-1", "compaff:1:2:scaled:0.5:pow:2"]
    memo = {spec: getattr(parse_function(spec), calculus)() for spec in specs}
    for spec in specs:  # a second parse is another object, equal to the first
        assert getattr(parse_function(spec), calculus)() is memo[spec], spec
    for cache in (functions._derivative, functions._inverse):
        assert cache.cache_info().maxsize == functions.CALCULUS_CACHE_SIZE
        cache.cache_clear()  # every level of the next builds is new
    z = np.array([0.6, 1.1, 2.4])
    for spec in specs:
        fresh = getattr(parse_function(spec), calculus)()
        assert fresh == memo[spec], spec
        if fresh is not None:
            assert np.array_equal(fresh(z), memo[spec](z)), spec
    assert any(memo.values())  # some inverse exists: the check is not vacuous


def test_complex_parameters():
    desc = parse_function("const:1j")
    assert desc(np.array([0.0]))[0] == 1j


def test_second_derivative_chains():
    # (s^2/2)'' = 1 exactly through the descriptor algebra
    f = parse_function("scaled:0.5:pow:2")
    d2 = f.derivative().derivative()
    assert d2.constant_value() == 1.0
    g = exponential().derivative().derivative()
    z = np.array([0.3])
    assert abs(g(z)[0] - np.exp(0.3)) < 1e-14


@pytest.mark.parametrize(
    "bad",
    [
        "", "nope", "pow", "affine:1", "scaled:2", "compaff:1:2", "sum:id", "const:xyz",
        # trailing text after a complete expression
        "id:junk", "exp:1", "log:2", "const:1:2", "affine:1:2:3",
    ],
)
def test_bad_expressions_raise_config_error(bad):
    with pytest.raises(ConfigError):
        parse_function(bad)

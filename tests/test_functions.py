import inspect
import math

import numpy as np
import pytest

from calabilab import functions, parse_function
from calabilab.errors import ConfigError, DomainError
from calabilab.functions import (
    _TAGS,
    affine,
    composed_with_affine,
    constant,
    exponential,
    fsum,
    identity,
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
    "sum:sum:exp,id,pow:2",  # a left-nested sum: its first operand has a comma
]


@pytest.mark.parametrize("spec", CATALOG)
def test_parse_render_roundtrip(spec):
    desc = parse_function(spec)
    assert desc.render() == spec  # every CATALOG spec is canonical
    again = parse_function(desc.render())
    z = np.array([0.7, 1.3, 2.9])
    assert np.allclose(desc(z), again(z))


def _random_descriptor(rng, depth):
    """A random descriptor tree of at most depth levels, over every tag."""
    def scalar():
        c = float(rng.uniform(-3.0, 3.0))
        return complex(c, float(rng.uniform(-1.0, 1.0))) if rng.random() < 0.2 else c

    leaves = [identity, exponential, log_guarded, lambda: constant(scalar()),
              lambda: affine(scalar().real, scalar()),
              lambda: power(int(rng.integers(-3, 4)) if rng.random() < 0.5 else float(rng.uniform(-2.0, 2.0)))]
    if depth == 0 or rng.random() < 0.3:
        return leaves[rng.integers(len(leaves))]()
    kind = rng.integers(3)
    if kind == 0:
        return scaled(scalar(), _random_descriptor(rng, depth - 1))
    if kind == 1:
        return fsum(_random_descriptor(rng, depth - 1), _random_descriptor(rng, depth - 1))
    return composed_with_affine(_random_descriptor(rng, depth - 1), scalar().real, scalar().real)


def test_random_descriptor_trees_roundtrip():
    # descriptor -> text -> descriptor, sums nested on either side included
    rng = np.random.default_rng(23)
    left_nested = 0
    for _ in range(500):
        desc = _random_descriptor(rng, 4)
        text = desc.render()
        assert parse_function(text) == desc, text
        left_nested += text.count("sum:sum:")
    assert left_nested  # the trees include sums whose first operand is a sum


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
    # log is undefined at 0, and the first of several offending nodes is named
    with pytest.raises(DomainError):
        log_guarded()(np.array([0.0]))
    with pytest.raises(DomainError) as exc:
        power(-1)(np.array([1.0, 0.0, 0.0]), np.array([0.1, 0.2, 0.3]))
    assert exc.value.node == 0.2


def test_identity_returns_its_argument():
    # no copy: the read-only array handed in comes back, and callers only
    # read it (test_cli holds them to that)
    z = np.linspace(-1.0, 1.0, 5)
    z.setflags(write=False)
    assert identity()(z) is z and identity()(z, z) is z
    assert parse_function("id")(z) is z


DOMAIN_LEAVES = ["id", "exp", "const:1", "affine:2:1", "pow:0", "pow:2", "pow:3",
                 "pow:-1", "pow:-2", "pow:0.5", "pow:1.5", "log"]


def _wrapped(g):
    """Every tag with an operand around g.  Each affine map of compaff sends
    {-1, 0, 1} onto a set that holds 0, or 0 and -1, where every domain of
    the catalog ends."""
    yield scaled(0.5, g)
    yield scaled(0.0, g)
    for a, b in ((1.0, 0.0), (-1.0, 0.0), (0.0, 0.0)):
        yield composed_with_affine(g, a, b)
    for other in (exponential(), log_guarded()):
        yield fsum(g, other)
        yield fsum(other, g)


def test_a_descriptor_has_a_domain_exactly_when_it_can_raise():
    # over every tag, nested two deep: has_domain() is True exactly when
    # evaluating at z in {-1, 0, 1} raises DomainError, and a derivative of
    # a function without a domain has none
    z = np.array([-1.0, 0.0, 1.0])
    leaves = [parse_function(spec) for spec in DOMAIN_LEAVES]
    once = [w for g in leaves for w in _wrapped(g)]
    trees = leaves + once + [w for g in once for w in _wrapped(g)]
    assert {g.tag for g in trees} == set(_TAGS)
    for g in trees:
        try:
            g(z)
            raised = False
        except DomainError:
            raised = True
        assert g.has_domain() is raised, g.render()
        assert g.has_domain() or not g.derivative().has_domain(), g.render()


def test_constant_value_detection():
    assert constant(4.0).constant_value() == 4.0
    assert identity().derivative().constant_value() == 1.0
    assert affine(0.0, 7.0).constant_value() == 7.0
    assert scaled(2.0, constant(3.0)).constant_value() == 6.0
    assert fsum(constant(1.0), constant(2.0)).constant_value() == 3.0
    assert power(0).constant_value() == 1.0
    assert power(0).derivative().constant_value() == 0.0  # d/dz z^0 = 0, also at z = 0
    assert composed_with_affine(exponential(), 0.0, 2.0).constant_value() == np.exp(2.0)  # exp(0 z + 2)
    assert composed_with_affine(exponential(), 2.0, 0.0).constant_value() is None
    # a real parameter given as an int is stored as a float, and so are its values
    assert type(constant(1).constant_value()) is float and constant(1)(np.zeros(2)).dtype == float
    assert identity().constant_value() is None
    assert exponential().constant_value() is None
    # f = id has constant derivative; f = s^2/2 does not
    assert parse_function("id").derivative().constant_value() == 1.0
    assert parse_function("scaled:0.5:pow:2").derivative().constant_value() is None


@pytest.mark.parametrize("calculus", ["derivative"])
def test_memoised_calculus_matches_an_uncached_build(calculus):
    specs = [*CATALOG, "scaled:2:exp", "compaff:2:1:exp", "pow:-1", "compaff:1:2:scaled:0.5:pow:2"]
    memo = {spec: getattr(parse_function(spec), calculus)() for spec in specs}
    for spec in specs:  # a second parse is the same object, which keeps its derivative
        assert getattr(parse_function(spec), calculus)() is memo[spec], spec
    z = np.array([0.6, 1.1, 2.4])
    for spec in specs:  # past the parse cache, every level of the tree is new
        fresh = getattr(functions._parse.__wrapped__(spec), calculus)()
        assert fresh == memo[spec], spec
        assert np.array_equal(fresh(z), memo[spec](z)), spec


def test_a_descriptor_keeps_each_fact_it_reads(monkeypatch):
    g = functions._parse.__wrapped__("scaled:2:sum:log,const:1")
    d, c, domain = g.derivative(), g.constant_value(), g.has_domain()
    assert c is None and domain is True
    monkeypatch.setattr(functions, "_TAGS", {})  # a kept fact is not read from the table again
    assert g.derivative() is d and g.constant_value() is None and g.has_domain() is True


def test_a_signed_zero_parameter_keeps_its_sign_in_the_derivative():
    # 0.0 == -0.0, so the two descriptors are equal; each keeps the
    # derivative built from its own parameter, whichever is differentiated first
    plus, minus = parse_function("scaled:0:exp"), parse_function("scaled:-0:exp")
    assert plus == minus and plus is not minus
    assert plus.derivative().render() == "scaled:0:exp"
    assert minus.derivative().render() == "scaled:-0:exp"
    assert math.copysign(1.0, minus.derivative().params[0]) == -1.0
    assert minus.derivative()(np.array([1.0])).tobytes() == np.array([-0.0]).tobytes()


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
        # a comma where a colon belongs, and a colon where a comma belongs
        "scaled:2,exp", "sum:exp:id", "pow,2",
        # pow takes a real exponent
        "pow:1j",
        # literals that are not finite, either part of a complex one included
        "pow:inf", "pow:nan", "const:nan", "scaled:inf:exp", "affine:nan:1", "const:1+nanj", "const:infj",
    ],
)
def test_bad_expressions_raise_config_error(bad):
    # an error is raised, not cached: the second call raises too
    for _ in range(2):
        with pytest.raises(ConfigError):
            parse_function(bad)


@pytest.mark.parametrize("bad, message", [
    (":exp", "unknown function expression '' in ':exp'"),
    ("sum:exp:id", "sum takes 0 parameter(s) and 2 operand(s), got 'sum:exp:id'"),
    ("scaled:2,exp", "scaled takes 1 parameter(s) and 1 operand(s), got 'scaled:2,exp'"),
    ("exp:1", "trailing text ':1' in 'exp:1'"),
    ("const:x", "bad numeric literal 'x'"),
])
def test_bad_expression_messages(bad, message):
    with pytest.raises(ConfigError) as exc:
        parse_function(bad)
    assert str(exc.value) == message


@pytest.mark.parametrize("spec", CATALOG)
def test_parse_is_memoised(spec):
    assert parse_function(spec) is parse_function(spec)


def test_parse_function_is_a_plain_function():
    # a plain def, so tools that wrap module functions (inspect.isfunction)
    # still see it; the memo is a private helper
    assert inspect.isfunction(parse_function)

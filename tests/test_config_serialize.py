import numpy as np
import pytest

from calabilab import (
    ConfigError,
    make_cp1_geometry,
    parse_config,
    profile_from_csv,
    profile_to_csv,
    random_admissible_profile,
)
from calabilab.serialize import jsonable


def test_parse_config_roundtrip():
    text = (
        "geometry=cpm:2\n"
        "# a comment\n"
        "f=exp\n"
        "h=id\n"
        "grid.nodes=65\n"
        "seed=7\n"
        "normalization.target=3.5\n"
    )
    cfg = parse_config(text)
    assert cfg.geometry == "cpm:2"
    assert cfg.f_expr == "exp"
    assert cfg.nodes == 65
    assert cfg.seed == 7
    assert cfg.target == 3.5


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("geometry=cp1\nbogus=1\n")


def test_parse_config_rejects_bad_value():
    with pytest.raises(ConfigError):
        parse_config("grid.nodes=not_a_number\n")
    with pytest.raises(ConfigError):
        parse_config("just some text\n")


def test_profile_csv_roundtrip_bit_exact():
    geom = make_cp1_geometry()
    profile = random_admissible_profile(geom, 4, 0.3)
    text = profile_to_csv(profile)
    back = profile_from_csv(geom, text)
    assert np.array_equal(back.theta.values, profile.theta.values)


def test_profile_csv_rejects_wrong_grid():
    geom = make_cp1_geometry()
    small = make_cp1_geometry(65)
    text = profile_to_csv(random_admissible_profile(small, 4, 0.3))
    with pytest.raises(ConfigError):
        profile_from_csv(geom, text)
    with pytest.raises(ConfigError):
        profile_from_csv(geom, "a,b\n1,2\n")


def test_jsonable_handles_numpy_and_complex():
    out = jsonable(
        {
            "a": np.float64(1.5),
            "b": np.array([1, 2]),
            "c": 2.0 + 3.0j,
            "d": 4.0 + 0.0j,
            "e": np.bool_(True),
        }
    )
    assert out == {"a": 1.5, "b": [1, 2], "c": {"real": 2.0, "imag": 3.0}, "d": 4.0, "e": True}

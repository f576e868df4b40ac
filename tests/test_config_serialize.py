import json

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
from calabilab.serialize import dump_json, write_outputs


def test_parse_config_roundtrip():
    text = (
        "geometry=cpm:2\n"
        "# a comment\n"
        "f=exp\n"
        "h=id\n"
        "grid.nodes=65\n"
        "seed=7\n"
        "normalization.target=3.5\n"
        "  h  =  pow:2  # spaces around the key, the '=' and the value\n"
    )
    cfg = parse_config(text)
    assert cfg.geometry == "cpm:2"
    assert cfg.f_expr == "exp"
    assert cfg.h_expr == "pow:2"
    assert cfg.nodes == 65
    assert cfg.seed == 7
    assert cfg.target == 3.5


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("geometry=cp1\nbogus=1\n")


def test_parse_config_rejects_bad_value():
    # each message names the line, counted from 1 with comments and blank lines
    for text, message in (
        ("grid.nodes=not_a_number\n", "line 1: bad value for grid.nodes: 'not_a_number'"),
        ("just some text\n", "line 1: expected key=value, got 'just some text'"),
        ("# comment\n\ngeometry\n", "line 3: expected key=value, got 'geometry'"),
        ("seed=1\nbogus=1\n", "line 2: unknown key 'bogus'"),
    ):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert str(exc.value) == message


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
    # the right header for another column, and the right node count at other nodes
    rows = profile_to_csv(random_admissible_profile(geom, 4, 0.3)).splitlines()
    with pytest.raises(ConfigError, match="header x,theta"):
        profile_from_csv(geom, "\n".join(["x,psi", *rows[1:]]))
    shifted = [f"{float(x) / 2!r},{theta}" for x, theta in (row.split(",") for row in rows[1:])]
    with pytest.raises(ConfigError, match="nodes do not match"):
        profile_from_csv(geom, "\n".join([rows[0], *shifted]))
    with pytest.raises(ConfigError, match="row 'abc,1' is not two numbers"):
        profile_from_csv(geom, "\n".join([*rows[:5], "abc,1", *rows[6:]]))


def test_dump_json_writes_numpy_and_complex(tmp_path):
    path = tmp_path / "out.json"
    dump_json(
        {
            "a": np.float64(1.5),
            "b": np.array([1, 2]),
            "c": 2.0 + 3.0j,
            "d": 4.0 + 0.0j,
            "e": np.bool_(True),
            "f": [np.int64(3), np.complex128(0.5 - 1j), np.float32(0.25)],
        },
        path,
    )
    text = path.read_text()
    assert json.loads(text) == {
        "a": 1.5, "b": [1, 2], "c": {"real": 2.0, "imag": 3.0}, "d": 4.0, "e": True,
        "f": [3, {"real": 0.5, "imag": -1.0}, 0.25],
    }
    assert text.startswith('{\n  "a": 1.5,\n') and text.endswith("}\n")  # sorted, indent 2
    # anything else is refused as json.dump refuses it, with a TypeError
    with pytest.raises(TypeError, match="cannot write set as JSON"):
        dump_json({"a": {1, 2}}, tmp_path / "bad.json")
    assert not (tmp_path / "bad.json").exists()
    # write_outputs renders every file before it writes any: a refused value
    # in the second file leaves no directory and no first file
    out = tmp_path / "out"
    with pytest.raises(TypeError, match="cannot write set as JSON"):
        write_outputs(out, {"a.json": {"a": np.float64(1.5)}, "b.json": {"b": {1, 2}}})
    assert not out.exists()
    write_outputs(out, {"a.json": {"a": np.float64(1.5)}, "b.csv": "x,theta\n"})
    assert (out / "a.json").read_text() == '{\n  "a": 1.5\n}\n' and (out / "b.csv").read_text() == "x,theta\n"

import glob
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robsat.instance_io import (
    Instance,
    ParseError,
    dumps,
    emit_instance,
    loads,
    parse_instance,
    parse_rational,
)
from robsat.pl_map import CriticalValue, Norm

from helpers import random_complex, random_map

INSTANCE_DIR = os.path.join(os.path.dirname(__file__), "..", "instances")


def shipped_instances():
    return sorted(glob.glob(os.path.join(INSTANCE_DIR, "*.json")))


class TestRationals:
    def test_accepts_exact(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational(5) == Fraction(5)

    @pytest.mark.parametrize("bad", ["1.5", "nan", "inf", "1e3", "0x2", "", "1/0x"])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)


class TestParsing:
    def test_minimal_single_vertex(self):
        inst = loads(json.dumps({
            "version": 1, "n": 1, "norm": "linf",
            "vertices": [{"id": 0, "f": ["2"]}],
            "simplices": [[0]],
        }))
        assert len(inst.complex) == 1
        assert inst.f.value(0) == (2,)

    def test_float_literal_rejected(self):
        with pytest.raises(ParseError):
            loads(json.dumps({
                "version": 1, "n": 1, "norm": "linf",
                "vertices": [{"id": 0, "f": ["1.5"]}],
                "simplices": [[0]],
            }))

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            loads("{not json")

    def test_vertex_mismatch(self):
        with pytest.raises(ParseError):
            loads(json.dumps({
                "version": 1, "n": 1, "norm": "linf",
                "vertices": [{"id": 0, "f": ["1"]}],
                "simplices": [[0, 1]],
            }))

    def test_sphere_map_needs_a(self):
        with pytest.raises(ParseError):
            loads(json.dumps({
                "version": 1, "n": 2, "norm": "linf",
                "vertices": [{"id": 0}],
                "simplices": [[0]],
                "sphere_map": {"0": 1},
            }))

    def test_antipodal_sphere_map_rejected(self):
        with pytest.raises(ParseError):
            loads(json.dumps({
                "version": 1, "n": 2, "norm": "linf",
                "vertices": [{"id": 0}, {"id": 1}],
                "simplices": [[0, 1]],
                "a_simplices": [[0, 1]],
                "sphere_map": {"0": 1, "1": -1},
            }))

    @pytest.mark.parametrize("field, value", [
        ("sphere_map", []),      # a list, not an object
        ("f", "12"),             # a string, not a list: not the vector (1, 2)
        ("g", "12"),
        ("alpha", "-1"),         # critical values are nonnegative
        ("alpha", {"sqrt": "-1"}),
        ("vertices", 5),         # not a list of records
        ("n", [2]),
    ])
    def test_malformed_fields_rejected(self, field, value):
        doc = {"version": 1, "n": 2, "norm": "linf",
               "vertices": [{"id": 0, "f": ["1", "2"]}, {"id": 1, "f": ["0", "1"]}],
               "simplices": [[0, 1]], "a_simplices": [[0]], "sphere_map": {"0": 1}}
        if field in ("f", "g"):
            for rec in doc["vertices"]:
                rec[field] = value
        else:
            doc[field] = value
        with pytest.raises(ParseError):
            parse_instance(doc)

    def test_sqrt_alpha(self):
        inst = loads(json.dumps({
            "version": 1, "n": 1, "norm": "l2",
            "vertices": [{"id": 0, "f": ["2"]}],
            "simplices": [[0]],
            "alpha": {"sqrt": "2"},
        }))
        assert inst.alpha == CriticalValue.sqrt_of(2)

    @pytest.mark.parametrize("alpha", ["-1", "-1/3", {"sqrt": "-1"}, {"sqrt": "-2"}])
    def test_negative_alpha_message(self, alpha):
        doc = {"version": 1, "n": 1, "norm": "l2", "vertices": [{"id": 0, "f": ["2"]}],
               "simplices": [[0]], "alpha": alpha}
        with pytest.raises(ParseError, match="^bad alpha: critical values are nonnegative$"):
            loads(json.dumps(doc))


class TestRoundTrip:
    def test_shipped_corpus(self):
        files = shipped_instances()
        files = [f for f in files if not f.endswith("schema.json")]
        assert len(files) >= 10
        for path in files:
            with open(path) as fh:
                text = fh.read()
            inst = loads(text)
            emitted = emit_instance(inst)
            again = parse_instance(json.loads(json.dumps(emitted)))
            assert emit_instance(again) == emitted
            # shipped files are already canonical
            assert json.loads(text) == emitted

    def test_random_corpus(self):
        rng = random.Random(40)
        count = 0
        while count < 15:
            cx = random_complex(rng, max_dim=2, max_vertices=6, n_maximal=3)
            n = rng.randint(1, 3)
            inst = Instance(
                cx, n, rng.choice(list(Norm)),
                f=random_map(rng, cx, n=n),
                alpha=CriticalValue.rat(Fraction(rng.randint(1, 9), rng.randint(1, 4))),
            )
            emitted = emit_instance(inst)
            again = parse_instance(json.loads(dumps(inst)))
            assert emit_instance(again) == emitted
            count += 1


class TestSchema:
    def test_shipped_files_validate(self):
        jsonschema = pytest.importorskip("jsonschema")
        with open(os.path.join(INSTANCE_DIR, "instance.schema.json")) as fh:
            schema = json.load(fh)
        for path in shipped_instances():
            if path.endswith("schema.json"):
                continue
            with open(path) as fh:
                jsonschema.validate(json.load(fh), schema)


# -- parser fuzz: an Instance or a ParseError, nothing else -----------------

RATIONAL_TEXT = st.text(alphabet="0123456789/+- ", max_size=6)
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6)
                | st.floats() | st.text(max_size=6) | RATIONAL_TEXT
                | st.sampled_from(["1/0", "9" * 5000, "linf", "l2", "id", "sqrt"]))
FIELD_NAMES = st.sampled_from(["version", "n", "norm", "vertices", "simplices", "alpha",
                               "a_simplices", "sphere_map", "id", "f", "g", "chi", "sqrt"])
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(FIELD_NAMES | st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)
FUZZ = settings(derandomize=True, deadline=None, max_examples=300)


def parses_or_rejects(data):
    try:
        assert isinstance(parse_instance(data), Instance)
    except ParseError:
        pass


def locations(doc):
    """Every (container, key) pair of a JSON document, depth first."""
    out = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        out.append((doc, key))
        if isinstance(value, (dict, list)):
            out.extend(locations(value))
    return out


class TestParserFuzz:
    @FUZZ
    @given(JSON_VALUES)
    # Inputs that escaped as ZeroDivisionError, ValueError and OverflowError.
    @example({"n": 1, "vertices": [{"id": 0, "f": ["1/0"]}], "simplices": [[0]]})
    @example({"n": 1, "vertices": [{"id": 0, "f": ["9" * 5000]}], "simplices": [[0]]})
    @example({"n": float("inf"), "vertices": [], "simplices": []})
    @example({"n": 1, "vertices": [], "simplices": [[float("inf")]]})
    def test_random_json(self, data):
        parses_or_rejects(data)

    @FUZZ
    @given(FIELD_NAMES, JSON_VALUES)
    def test_random_top_level_field(self, field, value):
        doc = {"version": 1, "n": 2, "norm": "linf",
               "vertices": [{"id": 0, "f": ["1", "2"]}, {"id": 1, "f": ["0", "1"]}],
               "simplices": [[0, 1]], "a_simplices": [[0]], "sphere_map": {"0": 1},
               "alpha": "1/2"}
        doc[field] = value
        parses_or_rejects(doc)

    @pytest.mark.parametrize("path", [p for p in shipped_instances()
                                      if not p.endswith("schema.json")],
                             ids=os.path.basename)
    def test_mutated_shipped_instance(self, path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()

        @FUZZ
        @given(st.data())
        def check(data):
            doc = json.loads(text)
            container, key = data.draw(st.sampled_from(locations(doc)))
            if data.draw(st.booleans()):
                del container[key]
            else:
                container[key] = data.draw(JSON_VALUES)
            parses_or_rejects(doc)

        check()

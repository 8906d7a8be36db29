"""Record, the frozen value base: the same semantics as a frozen dataclass."""

import ast
import dataclasses
from pathlib import Path

import pytest

import permlab
import permlab.cli  # noqa: F401  (imports every module that defines records)
from permlab.fo.syntax import Mul, Quant, Var
from permlab.perms import Permutation
from permlab.record import Record

PACKAGE = Path(permlab.__file__).parent

# field values that pass each validating __post_init__, two distinct per class
VALID = {
    "Permutation": [((1, 0, 2),), ((0, 1, 2),)],
    "CycleType": [(((1, 1), (2, 1)),), (((3, 1),),)],
    "Quant": [("forall", "x", Var("x")), ("exists", "x", Var("x"))],
    "ResiduePair": [(7, 0, 1, 1, 2, 2, 2), (11, 0, 4, 1, 2, 5, 2)],
    "SelectorProblem": [((7,), (1,)), ((7, 11), (0, 1))],
}


def _records(cls=Record) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found += [sub, *_records(sub)]
    return found


RECORDS = sorted(_records(), key=lambda c: (c.__module__, c.__name__))


def _twin(cls):
    """The frozen dataclass with cls's name, fields and defaults."""
    spec = [(f, object, dataclasses.field(default=vars(cls)[f])) if f in vars(cls)
            else (f, object) for f in cls._fields]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _samples(cls) -> list[tuple]:
    if cls.__name__ in VALID:
        return VALID[cls.__name__]
    return [tuple(("v", i) for i in range(len(cls._fields))),
            tuple(("w", i) for i in range(len(cls._fields)))]


def test_every_converted_class_is_a_record():
    names = {c.__name__ for c in RECORDS}
    assert len(RECORDS) == 30
    assert {"Permutation", "CycleType", "LambdaProfile", "GroupSpec", "Mul",
            "One", "Quant", "EvalResult", "ScanReport"} <= names


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_matches_its_frozen_dataclass_twin(cls):
    twin, fields = _twin(cls), cls._fields
    (v1, v2) = _samples(cls)
    a, b, c = cls(*v1), cls(**dict(zip(fields, v1))), cls(*v2)
    ta, tb, tc = twin(*v1), twin(**dict(zip(fields, v1))), twin(*v2)
    assert repr(a) == repr(ta) and repr(c) == repr(tc)
    assert [getattr(a, f) for f in fields] == list(v1)
    if cls is not Mul:  # Mul compares and hashes by its product spine
        assert (a == b, a == c, a != c) == (ta == tb, ta == tc, ta != tc)
        assert hash(a) == hash(b) == hash(ta)
        assert (hash(a) == hash(c)) == (hash(ta) == hash(tc))
    assert a != ta and a.__eq__(ta) is NotImplemented
    for thing, kind in ((a, AttributeError), (ta, dataclasses.FrozenInstanceError)):
        for name in (*fields, "other"):
            with pytest.raises(kind):
                setattr(thing, name, 1)
        for name in fields:
            with pytest.raises(kind):
                delattr(thing, name)
    for maker in (cls, twin):
        with pytest.raises(TypeError):
            maker(*v1, "extra")
        with pytest.raises(TypeError):
            maker(*v1, bogus=1)
        if fields:
            with pytest.raises(TypeError):
                maker(*v1[:1], **{fields[0]: v1[0]})
            if fields[-1] not in vars(cls):
                with pytest.raises(TypeError):
                    maker(*v1[:-1])


def test_records_of_different_classes_with_equal_fields_differ():
    from permlab.fo.syntax import And, Comm, Implies, Or
    args = (Var("a"), Var("b"))
    made = [k(*args) for k in (And, Or, Implies, Comm)]
    twins = [_twin(k)(*args) for k in (And, Or, Implies, Comm)]
    assert [x == y for x in made for y in made] == [x == y for x in twins for y in twins]
    assert len(set(made)) == 4


def test_defaults_are_the_class_attributes():
    from permlab.groups import GroupSpec
    twin = _twin(GroupSpec)
    for args, kwargs in [(("sym",), {}), (("sym", 4), {}), (("generated",), {"gens": ("(1 2)",)}),
                         ((), {"kind": "cyclic", "n": 3})]:
        made = GroupSpec(*args, **kwargs)
        assert repr(made) == repr(twin(*args, **kwargs))
        assert hash(made) == hash(twin(*args, **kwargs))
    assert GroupSpec("sym") == GroupSpec("sym", 0, ())


def test_post_init_checks_still_run():
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((0, 0))
    with pytest.raises(ValueError, match="unknown quantifier kind"):
        Quant("some", "x", Var("x"))


def test_post_init_is_looked_up_on_the_class_at_each_call(monkeypatch):
    seen = []
    inner = Permutation.__post_init__
    monkeypatch.setattr(Permutation, "__post_init__",
                        lambda self: seen.append(self.images) or inner(self))
    Permutation((1, 0))
    with pytest.raises(ValueError):
        Permutation((1, 1))
    assert seen == [(1, 0), (1, 1)]


def test_no_module_imports_dataclasses():
    # a dataclass decorator execs its generated methods at import time
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
                [node.module] if isinstance(node, ast.ImportFrom) else []
            if any(n and n.split(".")[0] == "dataclasses" for n in names):
                offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not offenders

"""The library's parameter and result types as frozen records.

Each type keeps the constructor, `==`, `hash`, `repr`, pickling,
`__match_args__` and immutability that `dataclass(frozen=True)` gave it;
the records are built by `floquet_dqpt._record.record`.
"""

import inspect
import math
import pickle

import pytest

from floquet_dqpt.cli import PRESETS, RunConfig, main
from floquet_dqpt.dqpt import CriticalSet, FisherLine, dqpt_condition
from floquet_dqpt.dynamics import ReturnAmplitude
from floquet_dqpt.lattice import FloquetSpectrum
from floquet_dqpt.model import ModelParams
from floquet_dqpt.topology import ChiralInvariants

from api import fields, replaced

OPTIONS = ("band", "k_points", "t_points", "t_max", "sites", "steps",
           "n_lines", "out", "fmt")
# Each type's signature, as `inspect.signature` showed the dataclass's.
SIGNATURES = {
    ModelParams: "(omega_drive: 'float', delta1: 'float', delta2: 'float', "
                 "omega_amp: 'float') -> None",
    ReturnAmplitude: "(value: 'complex') -> None",
    FisherLine: "(n: 'int', tau_of_k: 'np.ndarray', t_imag: 'float') -> None",
    CriticalSet: "(has_dqpt: 'bool', k_c: 'float | None', "
                 "critical_times: 'list') -> None",
    ChiralInvariants: "(w1: 'int', w2: 'int', w0: 'int', wpi: 'int', "
                      "raw_w1: 'float') -> None",
    RunConfig: "(params: 'ModelParams | None', "
               + ", ".join(f"{name}: '{kind} | None' = None" for name, kind in
                           zip(OPTIONS, ("str", "int", "int", "float", "int",
                                         "int", "int", "str", "str")))
               + ") -> None",
    FloquetSpectrum: "(quasienergies: 'np.ndarray', edge_weights: "
                     "'np.ndarray', pi_mode: 'np.ndarray') -> None",
}
EXAMPLE = PRESETS["example1"]
# Field values per type that pass its validation; hashable, so that the
# records are (the arrays a FisherLine or FloquetSpectrum holds are not).
VALUES = {
    ModelParams: (math.pi, math.pi, 0.5 * math.pi, 1.0),
    ReturnAmplitude: (0.5 - 0.25j,),
    FisherLine: (2, (0.5, 1.5), 0.75),
    CriticalSet: (True, 1.0, (1.0, 3.0, 5.0)),
    ChiralInvariants: (1, -1, 0, 1, 1.0),
    RunConfig: (EXAMPLE, "minus", 3, 4, 2.0, None, None, None, None, "csv"),
    FloquetSpectrum: ((-1.0, 1.0), (0.5, 0.5), (False, True)),
}
TYPES = list(SIGNATURES)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_signature_is_the_fields_in_order(cls):
    assert str(inspect.signature(cls)) == SIGNATURES[cls]
    names = tuple(inspect.signature(cls).parameters)
    assert cls.__match_args__ == names
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")
    record = cls(*VALUES[cls])
    assert fields(record) == VALUES[cls]
    assert cls(**dict(zip(names, VALUES[cls]))) == record


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_equality_hash_repr_and_pickle_read_the_fields(cls):
    record, twin = cls(*VALUES[cls]), cls(*VALUES[cls])
    assert record == twin and not record != twin and record is not twin
    assert hash(record) == hash(twin) == hash(VALUES[cls])
    # another type with the same fields, a tuple of them, is not equal
    assert record != VALUES[cls]
    assert record.__eq__(VALUES[cls]) is NotImplemented
    name = cls.__match_args__[-1]
    other = replaced(record, **{name: 2.5})
    assert other != record and fields(other)[:-1] == VALUES[cls][:-1]
    assert repr(record) == cls.__name__ + "(" + ", ".join(
        f"{n}={v!r}" for n, v in zip(cls.__match_args__, VALUES[cls])) + ")"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is cls and copy == record
        assert vars(copy) == vars(record)
    match record:
        case cls(first):
            assert first == VALUES[cls][0]


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_records_are_frozen(cls):
    record = cls(*VALUES[cls])
    for name in (*cls.__match_args__, "unknown"):
        with pytest.raises(AttributeError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError,
                           match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert fields(record) == VALUES[cls]


def test_defaults_and_validation():
    # the verdict without transitions lists its critical times afresh on
    # each call; the class holds no default list
    first, second = (dqpt_condition(PRESETS["example2"]) for _ in range(2))
    assert first.critical_times == [] and first == second
    assert first.critical_times is not second.critical_times
    assert not hasattr(CriticalSet, "critical_times")
    assert RunConfig(EXAMPLE) == RunConfig(EXAMPLE, *(None,) * len(OPTIONS))
    # __post_init__ runs once the fields are set, with the same errors
    for bad in ((0.0, 1.0, 1.0, 1.0), (1.0, math.nan, 1.0, 1.0)):
        with pytest.raises(ValueError):
            ModelParams(*bad)
    with pytest.raises(ValueError, match="k_points must be in"):
        RunConfig(EXAMPLE, k_points=1)
    with pytest.raises(TypeError, match=r"^ModelParams\.__init__\(\) got an "
                       "unexpected keyword argument 'foo'$"):
        ModelParams(1.0, 1.0, 1.0, 1.0, foo=1.0)
    with pytest.raises(TypeError, match=r"^ModelParams\.__init__\(\) missing "
                       "1 required positional argument: 'omega_amp'$"):
        ModelParams(1.0, 1.0, 1.0)


def test_cached_properties_leave_equality_and_hash_alone():
    read, unread = replaced(EXAMPLE), replaced(EXAMPLE)
    assert read.normal_form == (4.0, *(x / 4.0 for x in VALUES[ModelParams]))
    assert read.time_limit == 2.0 ** 44
    assert {"normal_form", "time_limit"} <= set(vars(read))
    assert not {"normal_form", "time_limit"} & set(vars(unread))
    assert read == unread and hash(read) == hash(unread)
    assert repr(read) == repr(unread)
    copy = pickle.loads(pickle.dumps(read))
    assert copy == unread and copy.normal_form == read.normal_form
    with pytest.raises(AttributeError, match="cannot assign to field"):
        read.normal_form = None


@pytest.mark.parametrize("model, message", [
    ("omega_drive = 1\ndelta1 = 1\ndelta2 = 1\nomega_amp = 1\nfoo = 2\n",
     "ModelParams.__init__() got an unexpected keyword argument 'foo'"),
    ("omega_drive = 1\ndelta1 = 1\ndelta2 = 1\n",
     "ModelParams.__init__() missing 1 required positional argument: "
     "'omega_amp'")], ids=["unknown-key", "missing-key"])
def test_config_model_keys_are_the_constructor_errors(model, message, tmp_path,
                                                      capsys):
    ini = tmp_path / "model.ini"
    ini.write_text(f"[model]\n{model}", encoding="utf-8")
    assert main(["topo", "--config", str(ini)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: [model]: {message}\n"

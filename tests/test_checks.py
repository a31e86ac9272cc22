"""The one field type check shared by every config dataclass."""
import dataclasses
import importlib
import math
import pkgutil

import pytest

import abusivetext
from abusivetext import encoder as enc
from abusivetext import linear, vectorizer
from abusivetext.checks import check_fields, checked_kind
from abusivetext.bundle import Provenance
from abusivetext.configs import RunConfig
from abusivetext.metrics import TrainReport
from abusivetext.textprep import CleanPolicy

INT_FIELDS = [
    (enc.EncoderConfig, "d_model"),
    (enc.EncoderConfig, "max_length"),
    (enc.TrainConfigEnc, "epochs"),
    (enc.TrainConfigEnc, "batch_size"),
    (vectorizer.TfIdfConfig, "ngram_max"),
    (vectorizer.TfIdfConfig, "max_vocab"),
    (linear.TrainConfigLR, "batch_size"),
    (RunConfig, "encoder_vocab_size"),
    (RunConfig, "seed"),
]
OPTIONAL = [(vectorizer.TfIdfConfig, "max_vocab")]
FLOAT_FIELDS = [
    (enc.EncoderConfig, "dropout"),
    (enc.TrainConfigEnc, "learning_rate"),
    (linear.TrainConfigLR, "learning_rate"),
    (linear.TrainConfigLR, "l2_penalty"),
]


@pytest.mark.parametrize("cls, name", INT_FIELDS)
@pytest.mark.parametrize("value", [4.0, 2.5, True, "4", None, [4]])
def test_int_field_takes_only_an_int(cls, name, value):
    if value is None and (cls, name) in OPTIONAL:
        cls(**{name: value})  # declared ``int | None``
        return
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", ["0.1", True, None])
def test_float_field_rejects_strings_and_bools(cls, name, value):
    with pytest.raises(ValueError, match=f"{name} must be a number"):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
def test_float_field_rejects_non_finite(cls, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name", FLOAT_FIELDS)
def test_float_field_takes_an_int(cls, name):
    assert getattr(cls(**{name: 0}), name) == 0


@pytest.mark.parametrize("cls, name", [
    (CleanPolicy, "strip_digits"),
    (vectorizer.TfIdfConfig, "l2_normalize"),
])
@pytest.mark.parametrize("value", [1, 0.0, "true", None])
def test_bool_field_takes_only_a_bool(cls, name, value):
    with pytest.raises(ValueError, match=f"{name} must be true or false"):
        cls(**{name: value})


@pytest.mark.parametrize("value", ["0.25", True, math.nan])
def test_linear_bias_must_be_a_finite_number(value):
    with pytest.raises(ValueError, match="bias must be"):
        linear.LinearModel(weights=[0.0], bias=value)


@pytest.mark.parametrize("name, value", [
    ("model_kind", 3), ("format", None), ("language_tag", []), ("train_path", 3),
])
def test_run_config_strings(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a string"):
        RunConfig(**{name: value})


@pytest.mark.parametrize("value", ["xlsx", "TSV", ""])
def test_run_config_format_must_be_a_file_format(value):
    with pytest.raises(ValueError, match=f"unknown format {value!r}"):
        RunConfig(format=value)
    assert RunConfig(format="csv").format == "csv"


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_run_config_seed_must_not_be_negative(seed):
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        RunConfig(seed=seed)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        RunConfig.from_dict({"seed": seed})
    assert RunConfig(seed=0).seed == 0


def test_provenance_fields():
    good = dict(train_sha256="a", dev_sha256=None, abusivetext_version="0", numpy_version="0")
    assert Provenance(**good).dev_sha256 is None
    for name, value in [("train_sha256", None), ("numpy_version", 2), ("dev_sha256", [])]:
        with pytest.raises(ValueError, match=f"{name} must be"):
            Provenance(**{**good, name: value})


@pytest.mark.parametrize("name, value", [
    ("epoch_train_losses", "x"),
    ("epoch_train_losses", [0.5, "0.5"]),
    ("epoch_train_losses", [math.nan]),
    ("epoch_train_losses", [1, 10**400]),
    ("epoch_dev_macro_f1", (0.5,)),
])
def test_list_field_checks_each_item(name, value):
    with pytest.raises(ValueError, match=f"{name} must be"):
        TrainReport(**{name: value})


@pytest.mark.parametrize("losses, dev", [([0.5], [1.0, 1.0]), ([0.5, 0.4], [1.0]), ([], [1.0])])
def test_report_holds_no_dev_value_or_one_per_epoch(losses, dev):
    with pytest.raises(ValueError, match="epoch_dev_macro_f1 must be empty or hold one"):
        TrainReport(losses, dev)
    assert TrainReport(losses, []).epoch_dev_macro_f1 == []


@dataclasses.dataclass
class Lists:
    counts: "list[int]"
    names: "list[str]"

    def __post_init__(self):
        check_fields(self)


class Name(str):
    pass


class Count(int):
    pass


@pytest.mark.parametrize("counts, names", [
    ([1, 2], ["a", "b"]),
    ([], []),
    ([Count(3), 4], [Name("a"), "b"]),  # subclasses still pass the item check
])
def test_list_field_accepts(counts, names):
    assert Lists(counts, names).names == names


@pytest.mark.parametrize("counts, names, message", [
    ([1, True], ["a"], "counts must be an integer, got bool"),
    ([1, 2.0], ["a"], "counts must be an integer, got float"),
    ([1], ["a", 3], "names must be a string, got int"),
    ([1], [Name("a"), None], "names must be a string, got NoneType"),
])
def test_list_field_names_its_first_bad_item(counts, names, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Lists(counts, names)


@pytest.mark.parametrize("annotation, expected", [
    ("int", ("int", False, False)),
    ("int|None", ("int", True, False)),
    ("None | str", ("str", True, False)),
    ("list[float]", ("float", False, True)),
    ("dict[str, Any]", None),
    ("tuple[float, ...]", None),
    ("np.ndarray", None),
])
def test_checked_kind(annotation, expected):
    assert checked_kind(annotation) == expected


@pytest.mark.parametrize("annotation", [int, "Optional[int]", "int | float", "list[int] | str"])
def test_scalar_spelled_another_way_fails_loudly(annotation):
    @dataclasses.dataclass
    class Spelled:
        value: int

    Spelled.__dataclass_fields__["value"].type = annotation
    with pytest.raises(TypeError, match="annotation"):
        check_fields(Spelled(3))


def test_every_package_dataclass_spells_its_fields_checkably():
    for info in pkgutil.iter_modules(abusivetext.__path__):
        module = importlib.import_module(f"abusivetext.{info.name}")
        for obj in vars(module).values():
            if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                for f in dataclasses.fields(obj):
                    checked_kind(f.type)  # raises TypeError when it would miss one

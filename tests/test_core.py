import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import utileval
from utileval import (
    BootstrapConfig,
    ConfusionCounts,
    CostCoefficients,
    DecisionRule,
    EquityUtility,
    LabeledScores,
    SimStudyConfig,
    ValidationError,
    confusion_at,
    cost_family,
    equity_select,
    fit_logistic,
    kfold_cv,
    knn_scores,
    preserves_ranking_by_group,
    read_features,
    tune_and_compare,
)
from utileval.simstudy import simulate
from utileval.stats import resample


def test_confusion_counts_inclusive_threshold():
    # the two 0.5 scores sit exactly on the threshold and must be accepted
    data = LabeledScores(scores=[0.2, 0.5, 0.5, 0.9], labels=[0, 0, 1, 1])
    counts = confusion_at(data, DecisionRule(0.5))
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (2, 1, 0, 1)
    assert counts.n == 4


def test_confusion_extreme_thresholds():
    data = LabeledScores(scores=[0.2, 0.5, 0.5, 0.9], labels=[0, 0, 1, 1])
    everything = confusion_at(data, DecisionRule(-1.0))
    assert (everything.tp, everything.fp) == (2, 2)
    nothing = confusion_at(data, DecisionRule(0.9000000001))
    assert (nothing.fn, nothing.tn) == (2, 2)


def test_score_range_is_validated():
    with pytest.raises(ValidationError, match="score out of range at row 1"):
        LabeledScores(scores=[0.5, 1.2], labels=[0, 1])
    with pytest.raises(ValidationError, match="score out of range at row 0"):
        LabeledScores(scores=[-0.1], labels=[1])


def test_score_range_message_prints_plain_number():
    with pytest.raises(ValidationError) as excinfo:
        LabeledScores(scores=[0.5, 1.5], labels=[0, 1])
    assert str(excinfo.value) == "score out of range at row 1: 1.5 not in [0, 1]"


def test_labels_must_be_binary():
    with pytest.raises(ValidationError, match="must be 0 or 1"):
        LabeledScores(scores=[0.5, 0.5], labels=[0, 2])
    with pytest.raises(ValidationError, match="non-finite"):
        LabeledScores(scores=[0.5], labels=[np.nan])


def test_length_mismatches_are_reported():
    with pytest.raises(ValidationError, match="length mismatch"):
        LabeledScores(scores=[0.5, 0.6], labels=[1])
    with pytest.raises(ValidationError, match="group"):
        LabeledScores(scores=[0.5, 0.6], labels=[1, 0], group=[1])
    with pytest.raises(ValidationError, match="reference"):
        LabeledScores(scores=[0.5, 0.6], labels=[1, 0], reference_scores=[0.5])
    with pytest.raises(ValidationError, match="context column 'age'"):
        LabeledScores(scores=[0.5, 0.6], labels=[1, 0], context={"age": [40.0]})


def test_empty_and_nonfinite_rejected():
    with pytest.raises(ValidationError):
        LabeledScores(scores=[], labels=[])
    with pytest.raises(ValidationError, match="non-finite"):
        LabeledScores(scores=[np.inf], labels=[1])


def test_nonfinite_message_names_first_bad_row():
    cases = [
        ({"scores": [0.5, np.nan, np.inf]}, "scores contains a non-finite value at row 1: nan"),
        (
            {"reference_scores": [0.5, 0.5, -np.inf]},
            "reference_scores contains a non-finite value at row 2: -inf",
        ),
        (
            {"context": {"age": [np.inf, 30.0, np.nan]}},
            "context column 'age' contains a non-finite value at row 0: inf",
        ),
    ]
    for override, message in cases:
        columns = {"scores": [0.5, 0.5, 0.5], "labels": [0, 1, 0], **override}
        with pytest.raises(ValidationError) as excinfo:
            LabeledScores(**columns)
        assert str(excinfo.value) == message


def test_arrays_are_readonly():
    data = LabeledScores(scores=[0.5, 0.6], labels=[1, 0])
    with pytest.raises(ValueError):
        data.scores[0] = 0.0
    with pytest.raises(ValueError):
        data.labels[0] = 0


def test_take_keeps_all_columns():
    data = LabeledScores(
        scores=[0.1, 0.5, 0.9],
        labels=[0, 1, 1],
        group=[0, 1, 0],
        reference_scores=[0.2, 0.4, 0.8],
        context={"age": [30.0, 40.0, 50.0]},
        coefficients=CostCoefficients([1, 1, 1], [0, 1, 2], 0.5, 1.0),
    )
    sub = data.take([2, 0])
    assert sub.scores.tolist() == [0.9, 0.1]
    assert sub.group.tolist() == [0, 0]
    assert sub.reference_scores.tolist() == [0.8, 0.2]
    assert sub.context["age"].tolist() == [50.0, 30.0]
    assert sub.coefficients.a01.tolist() == [2.0, 0.0]
    assert sub.coefficients.a10 == 0.5


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_take_equals_the_validated_construction():
    data = LabeledScores(
        scores=[0.1, 0.5, 0.9, 0.5],
        labels=[0, 1, 1, 0],
        group=[0, 1, 0, 1],
        reference_scores=[0.2, 0.4, 0.8, 0.3],
        context={"age": [30.0, 40.0, 50.0, 60.0]},
        coefficients=CostCoefficients([1, 1, 1, 2], [0, 1, 2, 3], 0.5, 1.0),
    )
    idx = np.array([3, 0, 3, 2])
    sub = data.take(idx)
    coefficients = data.coefficients
    built = LabeledScores(
        scores=data.scores[idx],
        labels=data.labels[idx],
        group=data.group[idx],
        reference_scores=data.reference_scores[idx],
        context={"age": data.context["age"][idx]},
        coefficients=CostCoefficients(coefficients.a11[idx], coefficients.a01[idx], 0.5, 1.0),
    )
    for name in ("scores", "labels", "group", "reference_scores"):
        got, want = getattr(sub, name), getattr(built, name)
        assert _same_bits(got, want) and not got.flags.writeable
    assert list(sub.context) == ["age"]
    assert _same_bits(sub.context["age"], built.context["age"])
    assert not sub.context["age"].flags.writeable
    for name in ("a11", "a01", "a10", "a00"):
        got, want = getattr(sub.coefficients, name), getattr(built.coefficients, name)
        if isinstance(want, np.ndarray):
            assert _same_bits(got, want) and not got.flags.writeable
        else:
            assert type(got) is float and got == want


def test_counts_properties():
    data = LabeledScores(scores=[0.1, 0.5, 0.9], labels=[0, 1, 1])
    assert (data.n, data.n_positive, data.n_negative) == (3, 2, 1)


_X = [[0.1], [0.4], [0.35], [0.8], [0.9], [0.2], [0.7], [0.6], [0.3], [0.5]]
_Y = [0, 0, 1, 1, 1, 0, 1, 0, 0, 1]
_SMALL_STUDY = SimStudyConfig(n_samples=50, n_realizations=2)


@pytest.mark.parametrize(
    "name, call",
    [
        ("n_samples", lambda v: SimStudyConfig(n_samples=v, n_realizations=2)),
        ("n_realizations", lambda v: SimStudyConfig(n_samples=50, n_realizations=v)),
        ("master_seed", lambda v: SimStudyConfig(n_samples=50, n_realizations=2, master_seed=v)),
        ("grid_size", lambda v: simulate(_SMALL_STUDY, grid_size=v)),
        ("bins", lambda v: simulate(_SMALL_STUDY, bins=v)),
        ("seed", lambda v: BootstrapConfig(replicates=100, seed=v)),
        ("seed", lambda v: resample([LabeledScores([0.2, 0.8], [0, 1])], {}, 1, v)),
        ("seed", lambda v: kfold_cv(_X, _Y, n_folds=2, k_grid=[1], seed=v)),
        ("seed", lambda v: tune_and_compare(_X, _Y, [1], cost_family(1.0), 1, seed=v, n_folds=2)),
    ],
    ids=[
        "n_samples",
        "n_realizations",
        "master_seed",
        "grid_size",
        "bins",
        "BootstrapConfig",
        "resample",
        "kfold_cv",
        "tune_and_compare",
    ],
)
def test_counts_and_seeds_refuse_non_integers(name, call):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got 20.5$"):
        call(20.5)
    # a float holding an integer is that integer
    call(20.0)


def test_coefficients_validation():
    with pytest.raises(ValidationError, match="a01"):
        CostCoefficients(1.0, -0.5, 0.0, 1.0)
    with pytest.raises(ValidationError, match="at least one"):
        CostCoefficients(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValidationError, match="not finite"):
        CostCoefficients(np.inf, 0.0, 0.0, 1.0)
    with pytest.raises(ValidationError, match="length mismatch"):
        CostCoefficients([1.0, 1.0], [0.0, 0.0, 0.0], 0.0, 1.0)
    with pytest.raises(ValidationError, match=">= 0 everywhere"):
        CostCoefficients([1.0, -1.0], 0.0, 0.0, 1.0)


def test_coefficients_modes():
    constant = CostCoefficients.constant(2, 1, 0.5, 1)
    assert constant.is_constant and constant.n_samples is None
    assert constant.take(np.array([0, 0])) is constant
    mixed = CostCoefficients(1.0, [1.0, 2.0], 0.5, 1.0)
    assert not mixed.is_constant and mixed.n_samples == 2
    a11, a01, a10, a00 = mixed.as_vectors(2)
    assert a11.tolist() == [1.0, 1.0]
    assert a01.tolist() == [1.0, 2.0]
    with pytest.raises(ValidationError, match="does not match"):
        mixed.as_vectors(5)
    zero_one = CostCoefficients.zero_one()
    assert (zero_one.a11, zero_one.a01, zero_one.a10, zero_one.a00) == (1, 0, 0, 1)


def test_decision_rule_validation():
    with pytest.raises(ValidationError):
        DecisionRule(np.nan)
    rule = DecisionRule(0.5)
    out = rule.apply(np.array([0.4, 0.5, 0.6]))
    assert out.tolist() == [False, True, True]


def test_confusion_counts_validation():
    with pytest.raises(ValidationError):
        ConfusionCounts(tp=-1, fp=0, fn=0, tn=0)
    with pytest.raises(ValidationError):
        ConfusionCounts(tp=1.5, fp=0, fn=0, tn=0)


@given(st.data())
def test_confusion_partitions_the_data(data):
    n = data.draw(st.integers(min_value=1, max_value=60))
    scores = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    threshold = data.draw(st.floats(min_value=-0.5, max_value=1.5, allow_nan=False))
    ds = LabeledScores(scores=scores, labels=labels)
    counts = confusion_at(ds, DecisionRule(threshold))
    assert counts.tp + counts.fp + counts.fn + counts.tn == n
    assert counts.tp + counts.fn == ds.n_positive
    assert counts.fp + counts.tn == ds.n_negative


_FEATURES = np.array([[0.0, 1.0], [1.0, 0.5], [2.0, 2.5], [3.0, 1.5], [4.0, 4.0], [5.0, 3.0]])
_SCORES = np.linspace(0.1, 0.6, 6)

# every public entry point that takes a label or group vector, with the name
# its errors give that vector; each is called with the odd value at row 1
_BINARY_ENTRY_POINTS = {
    "LabeledScores labels": ("label", lambda v, _: LabeledScores(scores=_SCORES, labels=v)),
    "LabeledScores group": (
        "group",
        lambda v, _: LabeledScores(scores=_SCORES, labels=[0, 1] * 3, group=v),
    ),
    "kfold_cv": ("label", lambda v, _: kfold_cv(_FEATURES, v, 2, [1], seed=0)),
    "knn_scores": ("label", lambda v, _: knn_scores(_FEATURES, v, _FEATURES, 1)),
    "fit_logistic": ("label", lambda v, _: fit_logistic(_FEATURES, v)),
    "tune_and_compare": (
        "label",
        lambda v, _: tune_and_compare(
            _FEATURES, v, [1], CostCoefficients.zero_one(), repeats=1, n_folds=2
        ),
    ),
    "preserves_ranking_by_group": (
        "group",
        lambda v, _: preserves_ranking_by_group(_SCORES, _SCORES, v),
    ),
    "equity_select": (
        "group",
        lambda v, _: equity_select(_SCORES, v, EquityUtility(_SCORES, [0.0, 0.0])),
    ),
    "read_features": ("label", lambda v, path: read_features(_feature_file(path, v))),
}


def _feature_file(path: Path, labels) -> Path:
    path = path / "features.csv"
    rows = [f"{label},{x},{y}" for label, (x, y) in zip(labels, _FEATURES)]
    path.write_text("\n".join(["label,x,y", *rows]) + "\n")
    return path


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300, 2, 0.5, "a"], ids=repr)
@pytest.mark.parametrize("entry_point", sorted(_BINARY_ENTRY_POINTS))
def test_binary_vectors_are_checked_before_any_cast(entry_point, value, tmp_path):
    name, call = _BINARY_ENTRY_POINTS[entry_point]
    with warnings.catch_warnings(), pytest.raises(ValidationError) as excinfo:
        # a cast warning would reach the user beside the error
        warnings.simplefilter("error")
        call([0, value, 1, 0, 1, 0], tmp_path)
    message = str(excinfo.value)
    assert name in message
    # a file names the line of a cell that is not a number (row 1 is line 3)
    assert "at row 1" in message or "line 3" in message


def test_binary_check_names_the_first_bad_row():
    with pytest.raises(ValidationError) as excinfo:
        LabeledScores(scores=[0.5, 0.5, 0.5], labels=[1, 2, 3])
    assert str(excinfo.value) == "label values must be 0 or 1, got 2.0 at row 1"
    with pytest.raises(ValidationError) as excinfo:
        LabeledScores(scores=[0.5, 0.5], labels=[1, 0], group=[0, -np.inf])
    assert str(excinfo.value) == "group values must be 0 or 1, got -inf at row 1 (non-finite)"
    with pytest.raises(ValidationError) as excinfo:
        LabeledScores(scores=[0.5, 0.5], labels=["1", "b"])
    assert str(excinfo.value) == "label values must be numbers, got 'b' at row 1"


_SCALAR_ENTRY_POINTS = {
    "CostCoefficients": ("coefficient a11", lambda v: CostCoefficients(v, 0, 0, 1)),
    "CostCoefficients.constant": (
        "coefficient a11",
        lambda v: CostCoefficients.constant(v, 0, 0, 1),
    ),
    "DecisionRule": ("threshold", DecisionRule),
    "cost_family": ("cost parameter", cost_family),
}


@pytest.mark.parametrize("value", ["a", None], ids=repr)
@pytest.mark.parametrize("entry_point", sorted(_SCALAR_ENTRY_POINTS))
def test_scalar_inputs_that_are_not_numbers_are_validation_errors(entry_point, value):
    name, call = _SCALAR_ENTRY_POINTS[entry_point]
    with pytest.raises(ValidationError) as excinfo:
        call(value)
    assert str(excinfo.value) == f"{name} must be a number, got {value!r}"


def test_no_module_imports_a_private_name_from_another():
    package = Path(utileval.__file__).parent
    private = []
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            own = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "utileval"
            )
            if own:
                private += [
                    f"{source.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert private == []


def test_every_name_a_module_imports_is_used():
    # a name a module imports is read in that module or exported in its
    # __all__; only a line marked "# noqa: F401" may bind one for other readers
    package = Path(utileval.__file__).parent
    unused = []
    for source in sorted(package.glob("*.py")):
        text = source.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, str(source))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{source.name}:{alias.lineno}: {alias.asname or alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in read
                    and "# noqa: F401" not in lines[alias.lineno - 1]
                ]
    assert unused == []

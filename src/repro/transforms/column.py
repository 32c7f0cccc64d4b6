"""Per-column transforms: the invertible building blocks of a table pipeline.

Two families live here:

- **The numeric transform** (:class:`MinMaxNumeric`) operates on 2-D float
  arrays column-wise.  It doubles as the public
  ``repro.ml.preprocessing.MinMaxScaler`` (a thin alias), so its arithmetic
  is the single source of truth for "features in ``[0, 1]``" everywhere in
  the codebase.
- **Categorical transforms** (:class:`OneHotCategorical`,
  :class:`OrdinalCategorical`, :class:`EqualWidthDiscretizer`) operate on one
  column of values (strings or numbers) and expose the lower-level
  ``encode``/``decode`` integer-code interface that the discrete synthesizers
  (PrivBayes) consume directly.

Every transform is serialisable: ``state_dict()`` returns the fitted state
as plain numpy arrays (unicode arrays for string categories — never object
arrays, so artifacts load with ``allow_pickle=False``).  All operations are
vectorised; there are no Python-level per-row loops.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import check_array, check_positive

__all__ = [
    "ColumnTransform",
    "MinMaxNumeric",
    "OneHotCategorical",
    "OrdinalCategorical",
    "EqualWidthDiscretizer",
    "fit_discrete_column",
]


def as_typed_values(values) -> np.ndarray:
    """Coerce a raw column to a homogeneous numpy dtype.

    Typed numeric and string arrays pass through unchanged (so e.g. integer
    label classes keep their dtype); object columns whose every value parses
    as a float become ``float64``; anything else becomes a unicode array.
    Object arrays never escape this function, which is what keeps every
    downstream ``state_dict`` loadable with ``allow_pickle=False``.
    """
    values = np.asarray(values)
    if values.dtype != object and values.dtype.kind in "fiubUS":
        return values
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        return values.astype(np.str_)


class ColumnTransform:
    """Shared protocol: fit / transform / inverse_transform / persistence."""

    def fit(self, values) -> "ColumnTransform":
        raise NotImplementedError

    def transform(self, values) -> np.ndarray:
        """Encode raw values into model space (a 2-D float block)."""
        raise NotImplementedError

    def inverse_transform(self, block) -> np.ndarray:
        """Map a model-space block back to original-space values."""
        raise NotImplementedError

    def fit_transform(self, values) -> np.ndarray:
        return self.fit(values).transform(values)

    @property
    def output_width(self) -> int:
        """Number of model-space columns this transform produces."""
        raise NotImplementedError

    # -- persistence ----------------------------------------------------------------

    def state_dict(self) -> dict:
        raise NotImplementedError

    def load_state_dict(self, state: dict) -> "ColumnTransform":
        raise NotImplementedError

    def _check_fitted(self) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------------------
# Numeric transforms
# ----------------------------------------------------------------------------------


class MinMaxNumeric(ColumnTransform):
    """Scale features to ``[0, 1]`` column-wise (constant columns map to 0).

    Operates on 2-D arrays so it serves both as the per-column transform of
    :class:`~repro.transforms.table.TableTransformer` (width-1 blocks) and as
    the whole-matrix ``repro.ml.preprocessing.MinMaxScaler``.
    """

    def __init__(self):
        self.data_min_: Optional[np.ndarray] = None
        self.data_max_: Optional[np.ndarray] = None

    def fit(self, X) -> "MinMaxNumeric":
        X = check_array(X, "X")
        self.data_min_ = X.min(axis=0)
        self.data_max_ = X.max(axis=0)
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X, "X")
        span = np.maximum(self.data_max_ - self.data_min_, 1e-12)
        return np.clip((X - self.data_min_) / span, 0.0, 1.0)

    def inverse_transform(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X, "X")
        span = np.maximum(self.data_max_ - self.data_min_, 1e-12)
        return X * span + self.data_min_

    @property
    def output_width(self) -> int:
        self._check_fitted()
        return len(np.atleast_1d(self.data_min_))

    def state_dict(self) -> dict:
        self._check_fitted()
        return {
            "data_min": np.asarray(self.data_min_),
            "data_max": np.asarray(self.data_max_),
        }

    def load_state_dict(self, state: dict) -> "MinMaxNumeric":
        self.data_min_ = np.asarray(state["data_min"], dtype=np.float64)
        self.data_max_ = np.asarray(state["data_max"], dtype=np.float64)
        return self

    def _check_fitted(self) -> None:
        if self.data_min_ is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted yet")


# ----------------------------------------------------------------------------------
# Categorical transforms
# ----------------------------------------------------------------------------------


class _CategoryCodec:
    """Shared category bookkeeping for the categorical transforms."""

    def __init__(self, categories=None):
        self.categories_: Optional[np.ndarray] = (
            None if categories is None else as_typed_values(list(categories))
        )

    @property
    def n_levels(self) -> int:
        self._check_fitted()
        return len(self.categories_)

    def _fit_categories(self, values) -> None:
        values = as_typed_values(values)
        if self.categories_ is None:
            self.categories_ = np.unique(values)
        else:
            self._check_known(values)

    def _check_known(self, values: np.ndarray) -> None:
        if self.categories_.dtype.kind in "US" or values.dtype.kind in "US":
            # No astype here: casting to a fixed-width unicode dtype would
            # silently truncate longer strings before the membership test.
            known = np.isin(values, self.categories_)
            if not known.all():
                unknown = np.unique(np.asarray(values)[~known])
                raise ValueError(
                    f"values {unknown.tolist()[:5]} are not in the declared "
                    f"categories {self.categories_.tolist()}"
                )

    def encode(self, values) -> np.ndarray:
        """Map raw values to integer codes (positions in ``categories_``).

        Categories keep their declared order (the ordinal order); encoding
        goes through an argsort permutation so declared categories need not
        be sorted.  Numeric values not exactly matching a category snap to
        the nearest one (the behaviour discrete synthesizers rely on when
        re-encoding generated data); unknown string values raise.
        """
        self._check_fitted()
        values = as_typed_values(values)
        categories = self.categories_
        order = np.argsort(categories, kind="stable")
        sorted_categories = categories[order]
        if categories.dtype.kind in "fiub" and values.dtype.kind in "fiub":
            # Nearest-category match, vectorised over the sorted category
            # grid.  All numeric kinds take this path (not only float/float):
            # integer categories like [0, 5, 10] must also snap 7 to 5, not
            # let a clipped searchsorted silently map it to 10.  float64 is
            # exact for every integer these codecs see.
            grid = sorted_categories.astype(np.float64, copy=False)
            numeric = values.astype(np.float64, copy=False)
            positions = np.searchsorted(grid, numeric)
            left = np.clip(positions - 1, 0, len(categories) - 1)
            right = np.clip(positions, 0, len(categories) - 1)
            take_right = np.abs(grid[right] - numeric) <= np.abs(grid[left] - numeric)
            return order[np.where(take_right, right, left)].astype(int)
        self._check_known(values)
        positions = np.clip(
            np.searchsorted(sorted_categories, values), 0, len(categories) - 1
        )
        return order[positions].astype(int)

    def decode(self, codes, rng=None) -> np.ndarray:
        """Map integer codes back to category values (``rng`` is ignored)."""
        self._check_fitted()
        codes = np.clip(np.asarray(codes, dtype=int), 0, len(self.categories_) - 1)
        return self.categories_[codes]

    def _check_fitted(self) -> None:
        if self.categories_ is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted yet")

    # -- persistence ----------------------------------------------------------------

    def _category_state(self) -> dict:
        self._check_fitted()
        return {"categories": np.asarray(self.categories_)}

    def _load_category_state(self, state: dict) -> None:
        self.categories_ = np.asarray(state["categories"])


class OneHotCategorical(_CategoryCodec, ColumnTransform):
    """One-hot encoding of a categorical column (exact inverse via argmax).

    This is the shared encoder behind both mixed-type table preprocessing and
    the models' label attachment (Section IV-E one-hot labels).
    """

    def __init__(self, categories=None):
        super().__init__(categories)

    def fit(self, values) -> "OneHotCategorical":
        self._fit_categories(values)
        return self

    def transform(self, values) -> np.ndarray:
        codes = self.encode(values)
        onehot = np.zeros((len(codes), self.n_levels))
        onehot[np.arange(len(codes)), codes] = 1.0
        return onehot

    def inverse_transform(self, block) -> np.ndarray:
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != self.n_levels:
            raise ValueError(
                f"expected a (n, {self.n_levels}) one-hot block; got shape {block.shape}"
            )
        return self.decode(np.argmax(block, axis=1))

    @property
    def output_width(self) -> int:
        return self.n_levels

    def state_dict(self) -> dict:
        return self._category_state()

    def load_state_dict(self, state: dict) -> "OneHotCategorical":
        self._load_category_state(state)
        return self


class OrdinalCategorical(_CategoryCodec, ColumnTransform):
    """Ordered categories encoded as one normalised level in ``[0, 1]``.

    The category order *is* the encoding order (declared order, or sorted
    order when learned from data).  The inverse rounds to the nearest level,
    so it is exact on transformed values and robust to decoder noise.
    """

    def __init__(self, categories=None):
        super().__init__(categories)

    def fit(self, values) -> "OrdinalCategorical":
        self._fit_categories(values)
        return self

    def transform(self, values) -> np.ndarray:
        codes = self.encode(values).astype(np.float64)
        denominator = max(self.n_levels - 1, 1)
        return (codes / denominator).reshape(-1, 1)

    def inverse_transform(self, block) -> np.ndarray:
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != 1:
            raise ValueError(f"expected a (n, 1) ordinal block; got shape {block.shape}")
        denominator = max(self.n_levels - 1, 1)
        codes = np.rint(block[:, 0] * denominator).astype(int)
        return self.decode(codes)

    @property
    def output_width(self) -> int:
        return 1

    def state_dict(self) -> dict:
        return self._category_state()

    def load_state_dict(self, state: dict) -> "OrdinalCategorical":
        self._load_category_state(state)
        return self


class EqualWidthDiscretizer(ColumnTransform):
    """Equal-width binning over a fixed range (data-independent, privacy-free).

    The bin edges depend only on ``(n_bins, feature_range)`` — never on the
    data — so discrete synthesizers can use them without spending budget
    (PrivBayes' documented simplification).  ``decode`` reconstructs either
    bin midpoints (deterministic; what :class:`TableTransformer` would use)
    or a uniform draw within the bin when given an ``rng`` (what PrivBayes'
    ancestral sampling uses).
    """

    def __init__(self, n_bins: int = 10, feature_range: tuple = (0.0, 1.0)):
        check_positive(n_bins, "n_bins")
        low, high = (float(feature_range[0]), float(feature_range[1]))
        if not high > low:
            raise ValueError(f"feature_range must be increasing; got {feature_range!r}")
        self.n_bins = int(n_bins)
        self.feature_range = (low, high)
        self.edges_: Optional[np.ndarray] = None

    def fit(self, values=None) -> "EqualWidthDiscretizer":
        low, high = self.feature_range
        self.edges_ = np.linspace(low, high, self.n_bins + 1)
        return self

    @property
    def n_levels(self) -> int:
        return self.n_bins

    def encode(self, values) -> np.ndarray:
        self._check_fitted()
        low, high = self.feature_range
        clipped = np.clip(np.asarray(values, dtype=np.float64), low, high)
        return np.digitize(clipped, self.edges_[1:-1]).astype(int)

    def decode(self, codes, rng=None) -> np.ndarray:
        self._check_fitted()
        codes = np.clip(np.asarray(codes, dtype=int), 0, self.n_bins - 1)
        low = self.edges_[codes]
        high = self.edges_[codes + 1]
        if rng is None:
            return (low + high) / 2.0
        return rng.uniform(low, high)

    def transform(self, values) -> np.ndarray:
        return self.encode(values).astype(np.float64).reshape(-1, 1)

    def inverse_transform(self, block) -> np.ndarray:
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != 1:
            raise ValueError(f"expected a (n, 1) code block; got shape {block.shape}")
        return self.decode(np.rint(block[:, 0]).astype(int))

    @property
    def output_width(self) -> int:
        return 1

    def state_dict(self) -> dict:
        self._check_fitted()
        return {"edges": np.asarray(self.edges_)}

    def load_state_dict(self, state: dict) -> "EqualWidthDiscretizer":
        self.edges_ = np.asarray(state["edges"], dtype=np.float64)
        return self

    def _check_fitted(self) -> None:
        if self.edges_ is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted yet")


# ----------------------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------------------


def fit_discrete_column(values, n_bins: int):
    """Fit the discretisation PrivBayes-style models use for one column.

    Columns with at most ``n_bins`` distinct values are treated as categorical
    (:class:`OrdinalCategorical` — covers labels and one-hot columns without
    re-binning); anything else gets data-independent equal-width bins over
    ``[0, 1]`` (:class:`EqualWidthDiscretizer`).
    """
    values = np.asarray(values)
    if values.dtype.kind in "fiub" and len(np.unique(values)) > n_bins:
        return EqualWidthDiscretizer(n_bins=n_bins).fit()
    return OrdinalCategorical().fit(values)

"""The typed errors survive pickling, as a scan worker sends them."""

import inspect
import pickle

import pytest

from qrperm import errors
from qrperm import scan as scan_mod

# constructor arguments of each error that carries attributes; the
# others take a message
ARGS = {
    errors.NotAUnitError: (6, 9, 3),
    errors.InvalidGeneratorError: (4, 13, 6, 12),
    errors.AmbiguousOrderError: ((1, 2), " at n = 5"),
}

ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
          if issubclass(cls, errors.QrpermError)]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_round_trips_through_pickle(cls):
    exc = cls(*ARGS.get(cls, ("bad input",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def _not_a_unit(x):
    raise errors.NotAUnitError(x, 12, 3)


def test_a_worker_error_reaches_the_parent_whole():
    with pytest.raises(errors.NotAUnitError) as info:
        scan_mod._pool_map(_not_a_unit, [3, 9], 2)
    assert (info.value.modulus, info.value.gcd) == (12, 3)
    assert str(info.value) == f"{info.value.value} is not a unit mod 12 (gcd 3)"

"""The record types: immutable named tuples with value equality, the
``Name(field=value, ...)`` repr, and constructors that coerce and check
their fields as before."""
import importlib
import operator
import pickle
import pkgutil
from fractions import Fraction

import pytest

import stabkit
from stabkit.charges import ChargeParams, IntCharge, SlopeProfile
from stabkit.errors import ChargeError, LatticeError, PresentationError
from stabkit.gaussian import GaussianRational
from stabkit.gl2 import LiftedGL2
from stabkit.hn import CategoryPresentation, Edge, Filtration, Violation
from stabkit.lattice import ChernCharacter, MukaiVector, NSLattice
from stabkit.manifest import RunManifest
from stabkit.nef import (Decomposition, ModuliDimension, OmegaClass, WallReport,
                         wall_report)
from stabkit.rank2 import Rank2Lattice
from stabkit.support import (ChargeKernel, RootNormResult, RoundtripReport,
                             RoundtripVerdict)
from stabkit.walls import (ChamberPath, Crossing, NestingReport, OracleWall,
                           Region, SliceParams, WallLocus, wall_locus)

F = Fraction
LAT = NSLattice(1, [["2"]], ["1"])
V, W = MukaiVector(1, (0,), -1), MukaiVector(0, (0,), 1)
SLICE = SliceParams(LAT, ["1/2"])
LOCUS = wall_locus(V, MukaiVector(-8, (1,), 5), SLICE)


def verdict():
    return RoundtripVerdict((F(1), F(0), F(1)), F(-2), False, F(1), F(2), True)


# one example per public record type, built from fresh arguments per call
EXAMPLES = {
    GaussianRational: lambda: GaussianRational(1, "1/2"),
    NSLattice: lambda: NSLattice(rank=1, gram=[[2]], ample=[1], k3=True),
    MukaiVector: lambda: MukaiVector(1, [0], -1),
    ChernCharacter: lambda: ChernCharacter(1, ["1/2"], 0),
    ChargeParams: lambda: ChargeParams(LAT, [0], [2]),
    SlopeProfile: lambda: SlopeProfile(["inf", 1, "-1/2"]),
    IntCharge: lambda: IntCharge(1, 2, 3),
    LiftedGL2: lambda: LiftedGL2(((1, 0), (0, 1)), 3),
    CategoryPresentation: lambda: CategoryPresentation({"0": (0, 0), "A": ("1", 2)}, [], "0"),
    Edge: lambda: Edge("0", "A", "A"),
    Violation: lambda: Violation("code", "A", "message"),
    Filtration: lambda: Filtration(("0", "A"), ((1, 2),), ("A",)),
    RunManifest: lambda: RunManifest("walls", {"lattice": "ab"}, "0.1.0", {"bound": 1}, None),
    OmegaClass: lambda: OmegaClass((F(1),), V, (GaussianRational(1, 0),)),
    ModuliDimension: lambda: ModuliDimension(2, False, False),
    Decomposition: lambda: Decomposition(((1, 0), (0, 1)), 3),
    WallReport: lambda: wall_report(V, W, SliceParams(LAT, [0]), box=2),
    Rank2Lattice: lambda: Rank2Lattice([V, W], ((2, -1), (-1, 0))),
    ChargeKernel: lambda: ChargeKernel(((F(1),),), ((F(1),),), ((F(2),),)),
    RootNormResult: lambda: RootNormResult(F(9, 8), V, F(8), 3),
    RoundtripVerdict: verdict,
    RoundtripReport: lambda: RoundtripReport(F(1), F(2), (verdict(),)),
    SliceParams: lambda: SliceParams(LAT, ["1/2"]),
    Region: lambda: Region(-3, 0, "1/10", 4),
    WallLocus: lambda: wall_locus(V, MukaiVector(-8, (1,), 5), SLICE),
    OracleWall: lambda: OracleWall(LOCUS, True),
    Crossing: lambda: Crossing(F(2), LOCUS),
    ChamberPath: lambda: ChamberPath(F(-1), F(1), F(2), (Crossing(F(2), LOCUS),), ()),
    NestingReport: lambda: NestingReport(1, (), ((LOCUS, LOCUS, "touching"),)),
}

# records with a dict field hash as their fields do: not at all
UNHASHABLE = {CategoryPresentation, RunManifest}


def public_record_types():
    """Every public tuple subclass with fields that a stabkit module defines."""
    found = set()
    for info in pkgutil.iter_modules(stabkit.__path__):
        mod = importlib.import_module(f"stabkit.{info.name}")
        for name, obj in vars(mod).items():
            if (isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
                    and obj.__module__ == mod.__name__ and not name.startswith("_")):
                found.add(obj)
    return found


def test_every_record_type_has_an_example():
    assert public_record_types() == set(EXAMPLES)


@pytest.mark.parametrize("cls", sorted(EXAMPLES, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_record_is_an_immutable_value(cls):
    rec, twin = EXAMPLES[cls](), EXAMPLES[cls]()
    assert type(rec) is cls
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    assert rec == twin and not rec != twin and rec is not twin
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(twin)
        assert pickle.loads(pickle.dumps(rec)) == rec
    fields = ", ".join(f"{name}={getattr(rec, name)!r}" for name in cls._fields)
    assert repr(rec) == f"{cls.__name__}({fields})"


def test_field_defaults():
    assert NSLattice(1, [[2]], [1]).k3 is True
    assert LiftedGL2(((1, 0), (0, 1))).winding == 0
    assert Filtration((), (), ()).notes == ()
    assert RunManifest("c", {}, "v", {}, None).timestamp == ""
    assert WallLocus(V, W, (0, 0, 0, 0), LOCUS.kind).center is None


def test_constructors_coerce_their_fields():
    v = MukaiVector("2", (F(4, 2), "-3"), "6/3")
    assert v == (2, (2, -3), 2) and all(type(x) is int for x in v.coords())
    z = GaussianRational("1/2", 3)
    assert (z.re, z.im) == (F(1, 2), F(3)) and type(z.im) is Fraction
    assert ChernCharacter("1", [2], "1/2") == (F(1), (F(2),), F(1, 2))
    assert NSLattice("1", [["2"]], ["1"]) == (1, ((2,),), (1,), True)
    assert ChargeParams(LAT, ["1/2"], [2])[1:] == ((F(1, 2),), (F(2),))
    assert SlopeProfile(("inf", "3")).slopes == ("inf", F(3))
    assert LiftedGL2([["-1", 0], [0, -1]], 0) == (((F(-1), F(0)), (F(0), F(-1))), 1)
    cat = CategoryPresentation({0: ["0"], "A": ["1"]}, [("0", "A", "A")], 0)
    assert cat.zero == "0" and cat.objects == {"0": (0,), "A": (1,)}
    assert all(type(e) is Edge for e in cat.edges)
    assert Rank2Lattice([V, W], [["2", -1], [-1, 0]]).gram2 == ((2, -1), (-1, 0))
    assert Region("-1", 0, "1/2", 1) == (F(-1), F(0), F(1, 2), F(1))
    assert SliceParams(LAT, ["1/2"]) == SLICE == (LAT, (F(1, 2),))


@pytest.mark.parametrize("build, exc, message", [
    (lambda: MukaiVector(1.5, (0,), 1), ValueError, "expected an integer, got 1.5"),
    (lambda: GaussianRational(0.1, 0), TypeError,
     "not an exact rational: 0.1 (floats are rejected)"),
    (lambda: ChernCharacter(1, (0.5,), 0), TypeError, "not an exact rational: 0.5 (floats are rejected)"),
    (lambda: NSLattice(0, [], []), LatticeError, "rank must be a positive integer"),
    (lambda: NSLattice(1, [[2, 1]], [1]), LatticeError, "gram must be rank x rank"),
    (lambda: NSLattice(2, [[2, 1], [0, -2]], [1, 0]), LatticeError, "gram must be symmetric"),
    (lambda: NSLattice(1, [[2]], [1, 0]), LatticeError, "ample class has wrong length"),
    (lambda: NSLattice(2, [[2, 0], [0, 2]], [1, 0]), LatticeError,
     "NS gram must have signature (1, 1); got (2, 0) with 0 radical directions"),
    (lambda: NSLattice(1, [[2]], [0]), LatticeError,
     "ample class must have positive self-intersection"),
    (lambda: ChargeParams(LAT, [0, 0], [2]), LatticeError, "beta/omega have wrong NS rank"),
    (lambda: ChargeParams(LAT, [0], [0]), ChargeError,
     "omega must lie in the positive cone (omega^2 > 0)"),
    (lambda: SlopeProfile(()), ChargeError, "empty slope profile"),
    (lambda: SlopeProfile((1, "inf")), ChargeError, "+inf only allowed as the leading slope"),
    (lambda: SlopeProfile((1, 2)), ChargeError, "slopes must be strictly decreasing"),
    (lambda: LiftedGL2(((1, 0),)), ChargeError, "matrix part must be 2x2"),
    (lambda: LiftedGL2(((1, 0), (0, -1))), ChargeError,
     "matrix part must have positive determinant"),
    (lambda: LiftedGL2(((1, 0), (0, 1)), F(1, 2)), ChargeError, "winding must be an integer"),
    (lambda: CategoryPresentation({"0": (0,)}, [], "Z"), PresentationError,
     "zero object 'Z' missing"),
    (lambda: CategoryPresentation({0: (0,), "0": (1,)}, [], "0"), PresentationError,
     "duplicate object id '0'"),
    (lambda: CategoryPresentation({"0": ("1/2",)}, [], "0"), ValueError,
     "expected an integer, got '1/2'"),
    (lambda: Rank2Lattice((V, W), ((1, 2), (3, 4))), LatticeError,
     "gram2 must be a symmetric 2x2 integer matrix"),
    (lambda: SliceParams(LAT, [0, 0]), LatticeError, "beta0 has wrong NS rank"),
    (lambda: Region(1, 0, 1, 2), ValueError, "empty region"),
    (lambda: Region(0, 1, 0, 1), ValueError, "t_min must be strictly positive"),
])
def test_constructors_check_their_fields(build, exc, message):
    with pytest.raises(exc) as err:
        build()
    assert str(err.value) == message


def test_slice_z0_is_derived_not_passed():
    """A slice has two fields; a third constructor argument is refused."""
    with pytest.raises(TypeError):
        SliceParams(LAT, [0], ())


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
@pytest.mark.parametrize("a, b", [(GaussianRational(1, 0), GaussianRational(0, 1)),
                                  (V, W)], ids=["GaussianRational", "MukaiVector"])
def test_arithmetic_values_have_no_tuple_order(a, b, op):
    with pytest.raises(TypeError):
        op(a, b)


def test_products_and_sums_keep_their_meaning():
    for product in (lambda: V * 2, lambda: 2 * V):
        with pytest.raises(TypeError):
            product()
    assert V + W == MukaiVector(1, (0,), 0) and V.scale(2) == MukaiVector(2, (0,), -2)
    assert GaussianRational(1, 1) * 2 == 2 * GaussianRational(1, 1) == GaussianRational(2, 2)
    assert GaussianRational(1, 1) + 1 == GaussianRational(2, 1)

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from hyperorbit import SparseVec, lp
from hyperorbit.io_text import read_vector, write_vector

pytestmark = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit before 3.11")


def test_import_leaves_the_int_digit_limit_alone():
    script = (
        "import sys\n"
        "before = sys.get_int_max_str_digits()\n"
        "import hyperorbit, hyperorbit.cli\n"
        "assert sys.get_int_max_str_digits() == before, sys.get_int_max_str_digits()\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_long_numerators_round_trip_and_the_limit_is_restored(tmp_path):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        big = Fraction(10**5000 + 1, 2**40)
        v = SparseVec({0: big, 3: Fraction(-1, 2), 7: 0.25}, lp(2.0))
        path = tmp_path / "vector.txt"
        write_vector(path, v)
        assert sys.get_int_max_str_digits() == 4300
        back = read_vector(path)
        assert sys.get_int_max_str_digits() == 4300
        assert back.entries == v.entries and back.space == v.space
    finally:
        sys.set_int_max_str_digits(before)

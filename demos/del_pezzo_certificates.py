"""Nonnegativity certificates on totally-real del Pezzo surfaces.

Every real effective divisor on a catalogued surface of degree at least 3
walks down to zero or to a multiple of a conic bundle through verified
transfer steps.  The real structure decides the final certificate shape:
plain sums of squares, or a modified certificate weighted by one or two
intervals of the conic fibration's real image.

Run:  python demos/del_pezzo_certificates.py
"""

from sostransfer import surface_from_name, transfer_sequence
from sostransfer.delpezzo import CATALOGUE_TABLE, conic_bundles_real, interval_kind

print("=" * 72)
print("The catalogue: 24 real structures of degree at least 3")
print("=" * 72)
print(f"{'name':10s} {'degree':>6s} {'rho(R)':>7s} {'real (-1)s':>10s}  conic bundle image")
for name, degree, rho, n_real in CATALOGUE_TABLE:
    s = surface_from_name(name)
    image = interval_kind(name) if conic_bundles_real(s) else "-"
    print(f"{name:10s} {degree:6d} {rho:7d} {n_real:10d}  {image}")
print()

print("=" * 72)
print("Anticanonical transfers on three real structures of the same cubic")
print("=" * 72)
for name in ("P2(6,0)", "D(1,0)", "Q31(0,2)"):
    s = surface_from_name(name)
    t = transfer_sequence(s, s.minus_K)
    print(f"{name}: quartic forms, -K = {list(s.minus_K)}")
    for st in t.steps:
        if st.kind == "ample_step":
            print(f"  ample step: subtract {list(st.witness[0])}, residual {list(st.result)}")
        elif st.kind == "contract":
            print(f"  contract {[list(w) for w in st.witness]} -> {st.check['target']}")
        elif st.kind == "subtract_negative_curve":
            print(f"  strip negative curve {list(st.witness[0])}")
        else:
            print(f"  terminal: {st.check['terminal_kind']}")
    print(f"  certificate kind: {t.certificate_kind}")
    print()

print("A nonnegative quartic form on a cubic surface always admits a")
print("quadratic nonnegative multiplier; whether that multiplier is a sum")
print("of squares depends only on which of the three rows above the real")
print("structure lands in.")

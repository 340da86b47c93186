"""The float backend and its agreement with exact arithmetic.

classify_f64 takes the exact split P = c G H and places its classes
with float eigenvalues of two square-free parts: sqfree(H) for central
roots and spheres, and the rest of sqfree(N(G)) for isolated roots.  It
reports the same kind of class structure as the exact backend.
agree_with_exact runs both and reconciles them.
Run: python3 demos/05_numeric_backend.py
"""

from quatpoly import agree_with_exact, classify_f64, parse_to_qpoly

p = parse_to_qpoly("(x - i)(x^2 + x + 1)")
rep = classify_f64(p)
print("P =", p)
for cls, status in rep.class_entries:
    print(" ", cls, "->", status)

# irrational classes are invisible to the exact backend (it certifies
# only rational invariants) but perfectly visible to the float one
p2 = parse_to_qpoly("x^5 + x")
agreement = agree_with_exact(p2)
print(f"\nP = {p2}")
print("numeric classes:",
      ", ".join(str(c) for c, _ in agreement.numeric_report.class_entries))
print("exact classes:  ",
      ", ".join(str(c) for c, _ in agreement.exact_report.class_entries) or "none")
print("agreed:", agreement.agreed)
for flag in agreement.flagged:
    print("  flag:", flag)

# a perturbation experiment: nudge one coefficient by 1e-12.  The
# rationalizer cannot certify invariants with denominator 1e12, so the
# exact report goes quiet while the numeric report sees a near-sphere.
p3 = parse_to_qpoly("x^2 + 1/1000000000000 x + 1")
agreement = agree_with_exact(p3)
print(f"\nP = x^2 + 1e-12 x + 1")
print("exact classes:", list(agreement.exact_report.class_entries) or "none")
print("numeric classes:",
      ", ".join(str(c) for c, _ in agreement.numeric_report.class_entries))
print("agreed:", agreement.agreed, "| flags:", len(agreement.flagged))

# nearby classes: the companion holds each sphere quadratic squared, but
# sqfree(H) holds it once, so spheres 5e-5 apart resolve as cleanly as
# spheres 1e-2 apart
for text in ["(x^2 + 1)(x^2 + 10001/10000)", "(x^2 + 1)(x^2 + 101/100)"]:
    rep = classify_f64(parse_to_qpoly(text))
    print(f"\nP = {text}")
    for cls, status in rep.class_entries:
        print(" ", cls, "->", status)

"""Numeric verification of the modular transformation theory.

Everything transcendental is evaluated as a complex number at test points
in the upper half-plane: theta and eta, the Appell-Lerch sum mu and its
completion mu-tilde, the unary theta coefficients g_{a,b}, their Eichler
integrals, and the Mordell integrals j_1, j_2, j_3.  The battery checks
the elliptic and modular transformation laws, the vector-valued S and T
transformations of H(tau) = F(tau) - G(tau), and the classical
transformation with Mordell-integral remainder, all to tight tolerances.
"""

from mockq.numeric import CHECK_NAMES, SCENES, run_check


def main():
    print("tau scenes:", ", ".join(str(sc.tau) for sc in SCENES))
    print()
    print("%-22s %12s %8s" % ("check", "worst resid", "status"))
    for name in CHECK_NAMES:
        results = [run_check(name, sc) for sc in SCENES]
        worst = max(results, key=lambda r: r.residual)
        status = "pass" if all(r.passed for r in results) else "FAIL"
        print("%-22s %12.3e %8s" % (name, worst.residual, status))

    print()
    r = run_check("watson-lemma", SCENES[1])
    print("Watson remainder 4 sqrt(3) sqrt(-i tau) (j2, -j1, j3) at tau = %s: residual %.3e"
          % (r.tau, r.residual))


if __name__ == "__main__":
    main()

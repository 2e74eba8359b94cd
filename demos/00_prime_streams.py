"""
Prime streams: segmented sieving over arbitrary ranges
======================================================

Everything downstream consumes ordered streams of rational primes.  The
sieve works on half-open ranges [lo, hi), is segmented so memory stays flat
however large hi gets, and is transparent to segmentation: sieving adjacent
ranges and concatenating gives exactly the primes of the combined range.
"""

import numpy as np

from chebdens import PrimeRange, is_prime, prime_count, sieve_primes

# small windows anywhere
print("primes in [2, 30):   ", sieve_primes(PrimeRange(2, 30)).tolist())
print("primes in [90, 130): ", sieve_primes(PrimeRange(90, 130)).tolist())

# counts at the classical checkpoints
for hi in (10**4, 10**5, 10**6, 10**7):
    print(f"pi({hi:>9,}) = {prime_count(PrimeRange(2, hi)):,}")

# segmentation transparency: adjacent windows, same output
whole = sieve_primes(PrimeRange(1000, 5000))
pieces = np.concatenate([
    sieve_primes(PrimeRange(1000, 2500)),
    sieve_primes(PrimeRange(2500, 5000)),
])
print("segment-transparent: ", (whole == pieces).all())

# each emitted value passes an independent deterministic witness check
sample = sieve_primes(PrimeRange(10**6, 10**6 + 200))
print("witness check on a window past 10^6:", all(is_prime(int(p)) for p in sample))

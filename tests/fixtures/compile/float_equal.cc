// Compiled once per case by tests/CMakeLists.txt under the build's
// warning flags: the LITERAL and VARIABLE compares must be rejected,
// and the default case, which uses the helper, must compile clean.

#include "common/float_eq.hh"

bool
check(double a, double b)
{
#if defined(LITERAL)
    return a + b == 0.3;
#elif defined(VARIABLE)
    return a == b;
#else
    return e3::isExactZero(a - b);
#endif
}

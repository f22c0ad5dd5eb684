// Must not compile: a Status-returning call used as a bare statement
// drops its error. Status is [[nodiscard]] (src/common/result.hh).

#include "common/result.hh"

e3::Status save();

void
run()
{
    save();
}

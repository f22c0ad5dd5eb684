// Must not compile: a Result local that is never read drops its error.
// Result is gnu::warn_unused (src/common/result.hh), so
// -Wunused-variable fires although the type has a destructor.

#include "common/result.hh"

e3::Result<int> load();

void
run()
{
    e3::Result<int> loaded = load();
}

// Control for the compile-fail fixtures beside it: the same includes
// and flags compile clean when every Status/Result is read, or is
// discarded on purpose with a (void) cast.

#include "common/result.hh"

e3::Status save();
e3::Result<int> load();

int
run()
{
    (void)save();
    e3::Result<int> loaded = load();
    return loaded.valueOr(0);
}

// Fixture: a deliberate layering exception is silenced by a reasoned
// inline NOLINT(include-layering) on the #include line itself.

#include "serve/nolint_layering.h"

#include "cli/commands.h"  // NOLINT(include-layering): fixture exception

namespace scholar::serve {

int SuppressedLayeringFixture() { return 0; }

}  // namespace scholar::serve

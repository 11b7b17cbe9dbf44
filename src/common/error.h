#ifndef CROPHE_COMMON_ERROR_H_
#define CROPHE_COMMON_ERROR_H_

/**
 * @file
 * Recoverable error type for user-facing entry points.
 *
 * The logging layer's panic() is an internal invariant violation (a
 * CROPHE bug) and aborts. Library entry points that validate *user
 * input* — config names, fault plans, degraded hardware configurations —
 * must not tear the process down: they throw RecoverableError so an
 * embedding harness (or the CLI main()) can report the problem and keep
 * serving other requests.
 */

#include <stdexcept>
#include <string>

namespace crophe {

/**
 * A request that cannot be satisfied as posed (invalid user input, an
 * infeasibly degraded configuration). Catch at the harness boundary;
 * internal invariant violations still panic().
 */
class RecoverableError : public std::runtime_error
{
  public:
    explicit RecoverableError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

}  // namespace crophe

#endif  // CROPHE_COMMON_ERROR_H_

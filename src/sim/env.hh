/**
 * @file
 * Parsing of the CCNUMA_* environment knobs. A knob that is set but
 * not recognized is warned about and leaves the value it overrides
 * unchanged, so a typo can never silently flip a setting.
 */

#ifndef CCNUMA_SIM_ENV_HH
#define CCNUMA_SIM_ENV_HH

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "sim/logging.hh"

namespace ccnuma
{

/**
 * Read on/off environment knob @p name: 1|on is true, 0|off false.
 * Anything else is warned about and, like an unset knob, yields
 * @p value.
 */
inline bool
envSwitch(const char *name, bool value)
{
    const char *env = std::getenv(name);
    if (!env)
        return value;
    if (!std::strcmp(env, "1") || !std::strcmp(env, "on"))
        return true;
    if (!std::strcmp(env, "0") || !std::strcmp(env, "off"))
        return false;
    warn("%s=%s not recognized (use 1|on|0|off); keeping %s", name, env,
         value ? "on" : "off");
    return value;
}

/**
 * Override @p value from environment knob @p name when it holds a
 * positive decimal integer; anything else is warned about and leaves
 * @p value unchanged.
 */
template <typename T>
void
envPositive(const char *name, T &value)
{
    const char *env = std::getenv(name);
    if (!env)
        return;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (std::isdigit(static_cast<unsigned char>(env[0])) &&
        *end == '\0' && errno == 0 && v >= 1 &&
        v <= std::numeric_limits<T>::max()) {
        value = static_cast<T>(v);
        return;
    }
    warn("%s=%s not recognized (use a positive integer); keeping %llu",
         name, env, static_cast<unsigned long long>(value));
}

} // namespace ccnuma

#endif // CCNUMA_SIM_ENV_HH

/**
 * @file
 * Build-info stamp embedded in the library so every perf artifact
 * (trace metadata, serve stats snapshots, startup banners) is
 * attributable to an exact build: git describe, compiler, flags,
 * build type, cache file format version, and whether tracing was
 * compiled in.
 *
 * git/flags/build-type come from CMake compile definitions on
 * build_info.cc (LEGO_GIT_DESCRIBE, LEGO_BUILD_FLAGS,
 * LEGO_BUILD_TYPE); a non-CMake build degrades to "unknown" rather
 * than failing.
 */

#ifndef LEGO_OBS_BUILD_INFO_HH
#define LEGO_OBS_BUILD_INFO_HH

#include <cstdint>
#include <string>

namespace lego
{
namespace obs
{

struct BuildInfo
{
    std::string gitDescribe; //!< `git describe --always --dirty`.
    std::string compiler;    //!< e.g. "gcc 13.2.0".
    std::string flags;       //!< CXX flags the library was built with.
    std::string buildType;   //!< CMAKE_BUILD_TYPE.
    std::uint64_t cacheFormatVersion = 0; //!< CostCache file format.
    bool traceCompiledIn = false; //!< LEGO_TRACE != 0 at build time.

    /** One-line banner for tool startup. */
    std::string oneLine() const;
    /** JSON object (no trailing newline) for artifacts/metadata. */
    std::string toJson() const;
};

/** The stamp of this library build (computed once). */
const BuildInfo &buildInfo();

} // namespace obs
} // namespace lego

#endif // LEGO_OBS_BUILD_INFO_HH

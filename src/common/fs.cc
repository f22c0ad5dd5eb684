#include "common/fs.hh"

#include "common/logging.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace e3 {

namespace fs = std::filesystem;

Status
ensureDirectory(const std::string &dir)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        return Status::error("cannot create directory '", dir,
                             "': ", ec.message());
    return Status();
}

bool
fileExists(const std::string &path)
{
    std::error_code ec;
    return fs::is_regular_file(path, ec);
}

Result<std::string>
readFile(const std::string &path, std::string_view stopLine)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::error("cannot open '", path, "' for reading");
    // The leading newline, dropped on return, lets a stop line match on
    // the first line like on any other.
    const std::string needle = "\n" + std::string(stopLine);
    std::string text = "\n";
    while (in) {
        const size_t scanned = text.size();
        text.resize(scanned + kReadChunkBytes);
        in.read(text.data() + scanned, kReadChunkBytes);
        text.resize(scanned + static_cast<size_t>(in.gcount()));
        if (stopLine.empty())
            continue;
        // The stop line may start in the previous chunk.
        const size_t from =
            scanned < needle.size() ? 0 : scanned - needle.size() + 1;
        if (const size_t at = text.find(needle, from);
            at != std::string::npos) {
            text.resize(at + 1);
            break;
        }
    }
    if (in.bad())
        return Status::error("read error on '", path, "'");
    text.erase(0, 1);
    return text;
}

Status
atomicWriteFile(const std::string &path, const std::string &content)
{
    const std::string tmp = path + ".tmp";

    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return Status::error("cannot open '", tmp, "' for writing");
    const size_t written =
        content.empty()
            ? 0
            : std::fwrite(content.data(), 1, content.size(), f);
    bool ok = written == content.size();
    ok = std::fflush(f) == 0 && ok;
#if defined(__unix__) || defined(__APPLE__)
    // Flush file contents to stable storage before the rename makes
    // them visible under the final name: otherwise a power cycle can
    // leave a renamed-but-empty file.
    ok = ::fsync(::fileno(f)) == 0 && ok;
#endif
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        if (Status rm = removeFile(tmp); !rm.ok())
            warn("atomicWriteFile cleanup: ", rm.message());
        return Status::error("write to '", tmp, "' failed");
    }

    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        if (Status rm = removeFile(tmp); !rm.ok())
            warn("atomicWriteFile cleanup: ", rm.message());
        return Status::error("cannot rename '", tmp, "' to '", path,
                             "': ", ec.message());
    }
    return Status();
}

Status
removeFile(const std::string &path)
{
    std::error_code ec;
    fs::remove(path, ec); // returns false (no error) if missing
    if (ec)
        return Status::error("cannot remove '", path,
                             "': ", ec.message());
    return Status();
}

} // namespace e3

// Test helpers over one checkpoint snapshot directory (core/checkpoint.h):
// its files held in memory, and a manifest sealed over whatever those
// files now hold, so an edited file passes every size and checksum test
// and only its decoder can catch the edit.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "common/crc32.h"

namespace bohr::core::snapshot_files {

namespace fs = std::filesystem;

inline std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

inline void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

inline std::string hex32(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

/// Manifest text up to its `self` line, sealed with a fresh one.
inline std::string seal_manifest(const std::string& body) {
  return body + "self " + hex32(crc32(body)) + "\n";
}

/// The files a snapshot's manifest lists, by name.
struct Snapshot {
  std::map<std::string, std::string> files;

  static Snapshot load(const fs::path& dir) {
    Snapshot snap;
    std::ifstream manifest(dir / "MANIFEST");
    std::string header, tag, size, crc, name;
    std::getline(manifest, header);
    while (manifest >> tag >> size >> crc >> name && tag == "file") {
      snap.files[name] = read_bytes(dir / name);
    }
    return snap;
  }

  /// A manifest over the files as they are now.
  std::string manifest() const {
    std::string body = "BOHR-MANIFEST v1\n";
    for (const auto& [name, bytes] : files) {
      body += "file " + std::to_string(bytes.size()) + " " +
              hex32(crc32(bytes)) + " " + name + "\n";
    }
    return seal_manifest(body);
  }

  /// Writes the snapshot as `dir/snapshot-1`, the only one in `dir`.
  void write(const fs::path& dir, const std::string& manifest_text) const {
    fs::remove_all(dir);
    const fs::path snap = dir / "snapshot-1";
    fs::create_directories(snap);
    for (const auto& [name, bytes] : files) write_bytes(snap / name, bytes);
    write_bytes(snap / "MANIFEST", manifest_text);
  }
};

/// Rewrites a snapshot directory's manifest over its files as they now
/// are on disk.
inline void reseal_manifest(const fs::path& snapshot) {
  write_bytes(snapshot / "MANIFEST", Snapshot::load(snapshot).manifest());
}

}  // namespace bohr::core::snapshot_files

#include "util/fileio.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace origin::util {

std::string atomic_tmp_path(const std::string& path) {
  return path + ".tmp." + std::to_string(::getpid());
}

void write_file_atomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = atomic_tmp_path(path);
  bool ok = false;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (out && out.write(bytes.data(),
                         static_cast<std::streamsize>(bytes.size()))) {
      // flush() forces buffered bytes through to the OS while the stream
      // is still open — a full disk or rlimit hit here trips failbit,
      // where the implicit close in ~ofstream would swallow it.
      out.flush();
      ok = static_cast<bool>(out);
    }
  }
  if (!ok) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_file_atomic: cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_file_atomic: cannot rename " + tmp +
                             " -> " + path);
  }
}

std::string read_file(const std::string& path) {
  // One sized read: the model cache loads every cached net at startup,
  // and a per-character copy would dominate decoding them.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("read_file: cannot read " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) throw std::runtime_error("read_file: cannot size " + path);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(bytes.data(), static_cast<std::streamsize>(size))) {
    throw std::runtime_error("read_file: I/O error on " + path);
  }
  return bytes;
}

}  // namespace origin::util

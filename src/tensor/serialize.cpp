#include "tensor/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <stdexcept>

namespace hdczsc::tensor {

namespace io {

void write_string(std::ostream& os, const std::string& s) {
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is, const char* what) {
  const auto n = read_pod<std::uint32_t>(is, what);
  if (n > (1u << 20))
    throw std::runtime_error(std::string("serialize: implausible length for ") + what);
  check_readable(is, n, 1, what);
  std::string s(n, '\0');
  is.read(s.data(), n);
  if (!is) throw std::runtime_error(std::string("serialize: truncated reading ") + what);
  return s;
}

void check_readable(std::istream& is, std::uint64_t count, std::size_t item_bytes,
                    const char* what) {
  const auto pos = is.tellg();
  if (pos < 0) return;  // non-seekable: the read itself still fails cleanly
  is.seekg(0, std::ios::end);
  const auto end = is.tellg();
  is.seekg(pos);
  if (!is || end < pos)
    throw std::runtime_error(std::string("serialize: cannot size stream for ") + what);
  const auto remaining = static_cast<std::uint64_t>(end - pos);
  // Divide instead of multiplying: count * item_bytes can overflow u64 on
  // a hostile declared length, remaining / item_bytes cannot.
  if (item_bytes != 0 && remaining / item_bytes < count)
    throw std::runtime_error(std::string("serialize: truncated ") + what + " (declared " +
                             std::to_string(count) + " items of " +
                             std::to_string(item_bytes) + " bytes, " +
                             std::to_string(remaining) + " bytes remain)");
}

}  // namespace io

namespace {

constexpr char kMagic[4] = {'H', 'D', 'C', 'T'};
constexpr std::uint32_t kVersion = 1;

using io::read_pod;
using io::write_pod;

}  // namespace

void save_tensor(std::ostream& os, const Tensor& t) {
  os.write(kMagic, 4);
  write_pod(os, kVersion);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(t.dim()));
  for (std::size_t d = 0; d < t.dim(); ++d)
    write_pod<std::uint64_t>(os, t.size(d));
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.numel() * sizeof(float)));
  if (!os) throw std::runtime_error("save_tensor: write failed");
}

Tensor load_tensor(std::istream& is) {
  char magic[4];
  is.read(magic, 4);
  if (!is || std::string(magic, 4) != std::string(kMagic, 4))
    throw std::runtime_error("load_tensor: bad magic");
  const auto version = read_pod<std::uint32_t>(is);
  if (version != kVersion)
    throw std::runtime_error("load_tensor: unsupported version " + std::to_string(version));
  const auto rank = read_pod<std::uint32_t>(is);
  if (rank > 8) throw std::runtime_error("load_tensor: implausible rank");
  if (rank == 0) return Tensor();  // empty tensor (rank-0 record carries no data)
  // Each declared dim is bounded before it is multiplied in, so a product
  // that would wrap (or merely exceed the cap) is rejected by name instead
  // of wrapping to a small element count that passes every later check.
  constexpr std::uint64_t kMaxElements = std::uint64_t{1} << 31;
  Shape shape(rank);
  std::uint64_t numel = 1;
  for (auto& d : shape) {
    const auto dim = read_pod<std::uint64_t>(is);
    if (dim > kMaxElements || (numel != 0 && dim > kMaxElements / numel))
      throw std::runtime_error("load_tensor: implausible element count (declared dim " +
                               std::to_string(dim) + " overflows the 2^31-element cap)");
    d = static_cast<std::size_t>(dim);
    numel *= dim;
  }
  io::check_readable(is, numel, sizeof(float), "tensor data");
  Tensor t(shape);
  is.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(numel * sizeof(float)));
  if (!is) throw std::runtime_error("load_tensor: truncated data");
  return t;
}

void save_tensor_file(const std::string& path, const Tensor& t) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("save_tensor_file: cannot open " + path);
  save_tensor(f, t);
}

Tensor load_tensor_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("load_tensor_file: cannot open " + path);
  return load_tensor(f);
}

}  // namespace hdczsc::tensor

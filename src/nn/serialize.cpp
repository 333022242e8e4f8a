#include "nn/serialize.h"

#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "persist/crc32.h"

namespace miras::nn {

namespace {

// Binary single-network container: magic, format version, payload length,
// payload (the write_layers encoding), payload CRC-32.
constexpr char kNetworkMagic[8] = {'M', 'I', 'R', 'A', 'S', 'N', 'E', 'T'};
constexpr char kCriticMagic[8] = {'M', 'I', 'R', 'A', 'S', 'C', 'R', 'T'};
constexpr std::uint32_t kNetworkFormatVersion = 1;

std::string read_all(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void write_binary_container(const char magic[8],
                            persist::BinaryWriter payload,
                            std::ostream& out) {
  const std::vector<std::uint8_t> body = payload.take();
  persist::BinaryWriter container;
  container.raw(magic, 8);
  container.u32(kNetworkFormatVersion);
  container.u64(body.size());
  container.raw(body.data(), body.size());
  container.u32(persist::crc32_of(body.data(), body.size()));
  const std::vector<std::uint8_t>& bytes = container.bytes();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Validates the container framing after the magic (which the caller has
// already checked with has_magic) and returns a reader over the payload.
// `contents` must outlive the returned reader.
persist::BinaryReader open_binary_container(const std::string& contents,
                                            const char* what) {
  const auto* data = reinterpret_cast<const std::uint8_t*>(contents.data());
  persist::BinaryReader header(data + 8, contents.size() - 8,
                               std::string(what) + " header");
  const std::uint32_t version = header.u32();
  if (version > kNetworkFormatVersion)
    throw std::runtime_error(
        "serialize: " + std::string(what) + " format version " +
        std::to_string(version) + " is newer than this build supports (max " +
        std::to_string(kNetworkFormatVersion) + ")");
  const std::uint64_t payload_size = header.u64();
  const std::size_t payload_offset = 8 + header.position();
  if (payload_size > contents.size() - payload_offset)
    throw std::runtime_error("serialize: truncated " + std::string(what) +
                             " — payload extends past end of data");
  const std::size_t crc_offset =
      payload_offset + static_cast<std::size_t>(payload_size);
  persist::BinaryReader crc_reader(data + crc_offset,
                                   contents.size() - crc_offset,
                                   std::string(what) + " checksum");
  const std::uint32_t expected_crc = crc_reader.u32();
  if (crc_reader.remaining() != 0)
    throw std::runtime_error("serialize: trailing garbage after " +
                             std::string(what) +
                             " payload — refusing to ignore it");
  const std::uint32_t actual_crc = persist::crc32_of(
      data + payload_offset, static_cast<std::size_t>(payload_size));
  if (actual_crc != expected_crc)
    throw std::runtime_error("serialize: CRC mismatch in " +
                             std::string(what) + " — data is corrupted");
  return persist::BinaryReader(data + payload_offset,
                               static_cast<std::size_t>(payload_size),
                               std::string(what) + " payload");
}

bool has_magic(const std::string& contents, const char magic[8]) {
  return contents.size() >= 8 && std::memcmp(contents.data(), magic, 8) == 0;
}

std::vector<DenseLayer> load_binary_layers(std::istream& in,
                                           const char binary_magic[8],
                                           const char* what) {
  const std::string contents = read_all(in);
  if (!has_magic(contents, binary_magic))
    throw std::runtime_error(std::string("serialize: expected a binary ") +
                             what +
                             " container — the pre-persist text format was "
                             "removed; re-save old models with a build that "
                             "still reads it");
  persist::BinaryReader payload =
      open_binary_container(contents, what);
  std::vector<DenseLayer> layers = read_layers(payload);
  payload.expect_end();
  return layers;
}

}  // namespace

void write_tensor(persist::BinaryWriter& out, const Tensor& tensor) {
  out.u64(tensor.rows());
  out.u64(tensor.cols());
  for (std::size_t i = 0; i < tensor.size(); ++i) out.f64(tensor.data()[i]);
}

Tensor read_tensor(persist::BinaryReader& in) {
  const std::uint64_t rows = in.u64();
  const std::uint64_t cols = in.u64();
  if (rows != 0 && cols > in.remaining() / 8 / rows)
    throw std::runtime_error("persist: tensor shape " + std::to_string(rows) +
                             "x" + std::to_string(cols) + " in " +
                             in.context() +
                             " exceeds remaining data — corrupted");
  Tensor tensor(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  for (std::size_t i = 0; i < tensor.size(); ++i) tensor.data()[i] = in.f64();
  return tensor;
}

void write_layers(persist::BinaryWriter& out,
                  const std::vector<DenseLayer>& layers) {
  out.u64(layers.size());
  for (const DenseLayer& layer : layers) {
    out.str(activation_name(layer.activation()));
    write_tensor(out, layer.weights());
    write_tensor(out, layer.bias());
  }
}

std::vector<DenseLayer> read_layers(persist::BinaryReader& in) {
  const std::uint64_t num_layers = in.u64();
  if (num_layers == 0)
    throw std::runtime_error("serialize: bad layer count in " + in.context());
  std::vector<DenseLayer> layers;
  for (std::uint64_t l = 0; l < num_layers; ++l) {
    const Activation activation = activation_from_name(in.str());
    Tensor weights = read_tensor(in);
    Tensor bias = read_tensor(in);
    if (weights.rows() == 0 || weights.cols() == 0 ||
        bias.rows() != 1 || bias.cols() != weights.cols())
      throw std::runtime_error("serialize: bad layer shape in " +
                               in.context());
    layers.emplace_back(std::move(weights), std::move(bias), activation);
  }
  return layers;
}

void write_network(persist::BinaryWriter& out, const Network& net) {
  write_layers(out, net.layers());
}

Network read_network(persist::BinaryReader& in) {
  return Network(read_layers(in));
}

void write_critic(persist::BinaryWriter& out, const CriticNetwork& net) {
  write_layers(out, net.layers());
}

CriticNetwork read_critic(persist::BinaryReader& in) {
  return CriticNetwork(read_layers(in));
}

void save_network(const Network& net, std::ostream& out) {
  persist::BinaryWriter payload;
  write_network(payload, net);
  write_binary_container(kNetworkMagic, std::move(payload), out);
}

Network load_network(std::istream& in) {
  return Network(load_binary_layers(in, kNetworkMagic, "network"));
}

void save_critic(const CriticNetwork& net, std::ostream& out) {
  persist::BinaryWriter payload;
  write_critic(payload, net);
  write_binary_container(kCriticMagic, std::move(payload), out);
}

CriticNetwork load_critic(std::istream& in) {
  return CriticNetwork(load_binary_layers(in, kCriticMagic, "critic"));
}

}  // namespace miras::nn

//===- Decoder.cpp - packed archive decoder -------------------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The decoder mirrors the encoder's preorder traversal exactly because
// both run the SAME traversal: the shared Transcriber (Transcode.h)
// instantiated for the decode direction. The same streams are read in
// the same order, the same approximate stack state machine resolves
// collapsed pseudo-opcodes, and the reference decoder's queues evolve in
// lock step with the encoder's. This file owns what is genuinely
// decode-only: archive-level orchestration (header, dictionary, shards).
// Classfile materialization — §9 ldc-first constant placement and the
// §12 canonical pool — lives in Materialize.cpp, shared with the lazy
// PackedArchiveReader.
//
//===----------------------------------------------------------------------===//

#include "classfile/Transform.h"
#include "classfile/Writer.h"
#include "pack/ArchiveReader.h"
#include "pack/Dictionary.h"
#include "pack/Materialize.h"
#include "pack/Packer.h"
#include "pack/Transcode.h"
#include "support/ThreadPool.h"
#include "zip/Manifest.h"
#include <optional>

using namespace cjpack;

namespace {

/// Decodes one shard's streams into classfiles. Each shard carries an
/// independent model and reference state, so shards decode with no
/// shared mutable state; \p Dict (the shared dictionary, empty for
/// version 1) is replayed into each shard's model before decoding,
/// mirroring the encoder.
Expected<std::vector<ClassFile>>
decodeShardStreams(StreamSet &S, const ArchiveHeader &H,
                   const SharedDictionary &Dict,
                   const DecodeLimits &Limits) {
  auto Dec = makeRefDecoder(H.Scheme);
  Model M;
  if (auto E = seedShardDecoder(M, *Dec, H.Scheme, H.Flags, Dict))
    return E;

  DecodeContext C{M, *Dec, S, H.Scheme, Limits};
  Transcriber<DecodeContext> Reader(C);
  std::vector<ClassRec> Decoded;
  if (auto E = Reader.transcodeArchive(Decoded))
    return E;

  std::vector<ClassFile> Out;
  Out.reserve(Decoded.size());
  for (const ClassRec &DC : Decoded) {
    auto CF = materializeClass(M, DC);
    if (!CF)
      return CF.takeError();
    Out.push_back(std::move(*CF));
  }
  return Out;
}

/// Writes each decoded class back to classfile bytes under its name.
Expected<std::vector<NamedClass>>
namedClasses(Expected<std::vector<ClassFile>> Classes) {
  if (!Classes)
    return Classes.takeError();
  std::vector<NamedClass> Out;
  Out.reserve(Classes->size());
  for (const ClassFile &CF : *Classes) {
    NamedClass C;
    C.Name = std::string(CF.thisClassName()) + ".class";
    C.Data = writeClassFile(CF);
    Out.push_back(std::move(C));
  }
  return Out;
}

} // namespace

Expected<std::vector<ClassFile>>
cjpack::unpackClasses(std::span<const uint8_t> Archive,
                      unsigned Threads) {
  UnpackOptions Options;
  Options.Threads = Threads;
  return unpackClasses(Archive, Options);
}

Expected<std::vector<ClassFile>>
cjpack::unpackClasses(std::span<const uint8_t> Archive,
                      const UnpackOptions &Options) {
  const DecodeLimits &Limits = Options.Limits;
  ByteReader R(Archive);
  auto Header = readArchiveHeader(R, "unpack");
  if (!Header)
    return Header.takeError();
  if (Header->Version == FormatVersionIndexed)
    return makeError(ErrorCode::VersionMismatch,
                     "unpack: version-3 indexed archive; open it with "
                     "PackedArchiveReader");

  // Version 1 is one shard with no dictionary.
  auto Frames = readArchiveFrames(R, Header->Version, Limits);
  if (!Frames)
    return Frames.takeError();
  const SharedDictionary &Dict = Frames->Dict;
  std::vector<StreamSet> Shards(Frames->ShardCount);
  if (auto E = readStreamDirectory(R, Shards, Limits))
    return E;

  // Decode every shard concurrently; concatenation in shard order keeps
  // the result identical for any thread count.
  std::vector<std::future<Expected<std::vector<ClassFile>>>> Futures;
  Futures.reserve(Shards.size());
  {
    ThreadPool Pool(Options.Threads, Shards.size());
    for (StreamSet &S : Shards)
      Futures.push_back(Pool.submit([&S, &H = *Header, &Dict, &Limits] {
        return decodeShardStreams(S, H, Dict, Limits);
      }));
  }

  std::vector<ClassFile> Out;
  for (auto &F : Futures) {
    auto Shard = F.get();
    if (!Shard)
      return Shard.takeError();
    for (ClassFile &CF : *Shard)
      Out.push_back(std::move(CF));
  }
  return Out;
}

Expected<Manifest>
cjpack::manifestForPackedArchive(std::span<const uint8_t> Archive) {
  auto Classes = unpackArchive(Archive);
  if (!Classes)
    return Classes.takeError();
  return buildManifest(*Classes);
}

Expected<std::vector<NamedClass>>
cjpack::unpackArchive(std::span<const uint8_t> Archive,
                      unsigned Threads) {
  UnpackOptions Options;
  Options.Threads = Threads;
  return unpackArchive(Archive, Options);
}

Expected<std::vector<NamedClass>>
cjpack::unpackArchive(std::span<const uint8_t> Archive,
                      const UnpackOptions &Options) {
  return namedClasses(unpackClasses(Archive, Options));
}

Expected<std::vector<NamedClass>>
cjpack::unpackAnyArchive(std::span<const uint8_t> Archive,
                         const UnpackOptions &Options) {
  if (Archive.size() > 4 && Archive[4] == FormatVersionIndexed) {
    auto Reader = PackedArchiveReader::open(Archive.data(), Archive.size(),
                                            Options.Limits);
    if (!Reader)
      return Reader.takeError();
    return namedClasses(Reader->unpackAll());
  }
  return unpackArchive(Archive, Options);
}

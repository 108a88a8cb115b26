package embedding

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"pgasemb/internal/tensor"
)

// Binary serialisation of embedding collections, for checkpointing trained
// tables and shipping shards between machines. Format (little endian):
//
//	magic   uint32  'P','G','E','B'
//	version uint32  1
//	mode    uint32  pooling mode, always 0 (sum)
//	dim     uint32
//	tables  uint32
//	per table: featureID int32, rows uint32, rows*dim float32 weights
const (
	collectionMagic   = 0x42454750 // "PGEB"
	collectionVersion = 1
)

// SaveCollection writes c to w in the checkpoint format.
func SaveCollection(w io.Writer, c *Collection) error {
	bw := bufio.NewWriter(w)
	head := []uint32{collectionMagic, collectionVersion, 0, uint32(c.Dim), uint32(len(c.Tables))}
	for _, v := range head {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("embedding: save header: %w", err)
		}
	}
	for i, tbl := range c.Tables {
		if tbl.Dim != c.Dim {
			return fmt.Errorf("embedding: table %d has dim %d, collection %d", i, tbl.Dim, c.Dim)
		}
		if err := binary.Write(bw, binary.LittleEndian, int32(c.FeatureIDs[i])); err != nil {
			return fmt.Errorf("embedding: save table %d id: %w", i, err)
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(tbl.Rows)); err != nil {
			return fmt.Errorf("embedding: save table %d rows: %w", i, err)
		}
		if err := binary.Write(bw, binary.LittleEndian, tbl.Weights.Data()); err != nil {
			return fmt.Errorf("embedding: save table %d weights: %w", i, err)
		}
	}
	return bw.Flush()
}

// LoadCollection reads a checkpoint written by SaveCollection.
func LoadCollection(r io.Reader) (*Collection, error) {
	br := bufio.NewReader(r)
	var magic, version, mode, dim, tables uint32
	for _, dst := range []*uint32{&magic, &version, &mode, &dim, &tables} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("embedding: load header: %w", err)
		}
	}
	if magic != collectionMagic {
		return nil, fmt.Errorf("embedding: bad magic %#x (not a collection checkpoint)", magic)
	}
	if version != collectionVersion {
		return nil, fmt.Errorf("embedding: unsupported checkpoint version %d", version)
	}
	if dim == 0 || dim > 1<<16 {
		return nil, fmt.Errorf("embedding: implausible dim %d", dim)
	}
	if tables > 1<<20 {
		return nil, fmt.Errorf("embedding: implausible table count %d", tables)
	}
	if mode != 0 {
		return nil, fmt.Errorf("embedding: pooling mode %d in checkpoint, only sum (0) is supported", mode)
	}
	c := &Collection{Dim: int(dim)}
	for i := 0; i < int(tables); i++ {
		var fid int32
		var rows uint32
		if err := binary.Read(br, binary.LittleEndian, &fid); err != nil {
			return nil, fmt.Errorf("embedding: load table %d id: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &rows); err != nil {
			return nil, fmt.Errorf("embedding: load table %d rows: %w", i, err)
		}
		if rows == 0 || rows > 1<<28 {
			return nil, fmt.Errorf("embedding: implausible row count %d for table %d", rows, i)
		}
		elems := int64(rows) * int64(dim)
		if elems > 1<<28 {
			return nil, fmt.Errorf("embedding: table %d too large (%d elements)", i, elems)
		}
		weights := make([]float32, elems)
		if err := binary.Read(br, binary.LittleEndian, weights); err != nil {
			return nil, fmt.Errorf("embedding: load table %d weights: %w", i, err)
		}
		c.FeatureIDs = append(c.FeatureIDs, int(fid))
		c.Tables = append(c.Tables, &Table{
			Rows:    int(rows),
			Dim:     int(dim),
			Weights: tensor.FromSlice(weights, int(rows), int(dim)),
		})
	}
	return c, nil
}
